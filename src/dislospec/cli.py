"""Command-line front end: spectrum tables, current sweeps, verification.

Three subcommands:

* spectrum - one row per (n, l, k, flux, root); bound-state slopes and
  energies, optionally with oracle columns.
* current  - persistent current per flux point, analytic (lowest state)
  against the numeric flux derivative.
* verify   - runs the invariant suite at the configured parameters and
  reports pass/fail per check.

Flux is configured as the dimensionless ratio q*Phi_B/(2 pi) everywhere.
Energies are reported in units of m unless --absolute is given; slopes are
always raw.  Output is deterministic: identical configuration yields
byte-identical CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 solver error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields

from .core import (
    COULOMB,
    TWO_PI,
    Couplings,
    DefectGeometry,
    MassProfile,
    QuantumNumbers,
    coulomb_eta,
    effective_angular_momentum,
    heun_params,
)
from .errors import (
    DegenerateDenominator,
    KinkDetected,
    NoRealSolution,
    NoRoots,
    UndefinedAtZeroFlux,
)
from .heun import RadialWavefunction, build_coefficients
from .observables import persistent_current_ground, persistent_current_numeric
from .oracle import RadialGrid, default_fd_grid, fd_eigensolve_free, ode_residual
from .quantization import (
    energy_from_lambda,
    energy_ground_coulomb,
    energy_ground_free,
    nu_ground_coulomb,
    nu_ground_free,
    solve_general_n,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

SPECTRUM_COLUMNS = [
    "scenario",
    "n",
    "l",
    "k",
    "flux",
    "root_index",
    "branch",
    "eff_momentum",
    "nu_solved",
    "e_plus",
    "e_minus",
    "truncation_residual",
    "status",
]
ORACLE_COLUMNS = ["ode_residual", "fd_match"]
CURRENT_COLUMNS = [
    "n",
    "l",
    "k",
    "flux",
    "sigma",
    "branch",
    "current_analytic",
    "current_numeric",
    "abs_discrepancy",
    "status",
]

# Flux-ratio step used by the numeric current derivative.
CURRENT_STEP_T = 1e-5

# The finite-difference cross-check is only well-conditioned when the
# centrifugal wall is steep enough; below this the Dirichlet wall at the
# inner grid edge shifts the eigenvalue more than the check tolerance.
FD_CHECK_MIN_EFF = 1.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    scenario: str = "free"
    m: float = 1.0
    chi: float = 0.0
    b: float = 0.0
    q: float = 1.0
    flux: tuple[float, ...] = (0.0,)
    l: tuple[int, ...] = (0, 1, 2)
    k: tuple[float, ...] = (0.0,)
    n: tuple[int, ...] = (1,)
    format: str = "csv"
    oracle: bool = False
    absolute: bool = False
    branch: str = "plus"
    out: str | None = None
    detune_nu: float = 0.0


def parse_int_range(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise UsageError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def parse_float_list(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.split(",") if p.strip() != "")
    if not vals:
        raise UsageError(f"empty list {text!r}")
    return vals


def parse_flux(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"flux sweep must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise UsageError(f"empty flux sweep {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    return (float(text),)


def _normalize(value, parser):
    """Accept either the flag string form or native JSON scalars/lists."""
    if isinstance(value, str):
        return parser(value)
    if isinstance(value, (int, float)):
        return parser(str(value))
    if isinstance(value, (list, tuple)):
        return parser(",".join(str(v) for v in value))
    raise UsageError(f"cannot interpret config value {value!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")

    cfg = RunConfig()

    def pick(name: str, conv=None, parser=None):
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            return parser(cli_val) if parser else cli_val
        if name in file_values:
            v = file_values[name]
            if parser:
                return _normalize(v, parser)
            return conv(v) if conv else v
        return getattr(cfg, name)

    try:
        cfg.scenario = pick("scenario")
        cfg.m = float(pick("m", conv=float))
        cfg.chi = float(pick("chi", conv=float))
        cfg.b = float(pick("b", conv=float))
        cfg.q = float(pick("q", conv=float))
        cfg.flux = pick("flux", parser=parse_flux)
        cfg.l = pick("l", parser=parse_int_range)
        cfg.k = pick("k", parser=parse_float_list)
        cfg.n = pick("n", parser=parse_int_range)
        cfg.format = pick("format")
        cfg.oracle = bool(pick("oracle"))
        cfg.absolute = bool(pick("absolute"))
        cfg.branch = pick("branch")
        cfg.out = pick("out")
        cfg.detune_nu = float(pick("detune_nu", conv=float))
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc

    if cfg.scenario not in ("free", "coulomb", "ab"):
        raise UsageError(f"unknown scenario {cfg.scenario!r}")
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.format!r}")
    if cfg.branch not in ("plus", "minus"):
        raise UsageError(f"branch must be plus or minus, got {cfg.branch!r}")
    if not cfg.m > 0.0:
        raise UsageError(f"mass must be positive, got {cfg.m}")
    if any(nn < 1 for nn in cfg.n):
        raise UsageError("radial index n must be >= 1")
    if cfg.scenario == "free":
        if cfg.b != 0.0 or any(t != 0.0 for t in cfg.flux):
            raise UsageError("scenario 'free' requires b = 0 and zero flux")
    if cfg.scenario == "ab" and cfg.q == 0.0:
        raise UsageError("scenario 'ab' requires a nonzero charge q")
    return cfg


def _couplings(cfg: RunConfig, t: float) -> Couplings:
    # t is q*Phi_B/(2 pi); store the dimensionful flux.
    return Couplings(b=cfg.b, q=cfg.q, phi_B=t * TWO_PI / cfg.q)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _energy_scale(cfg: RunConfig) -> float:
    return 1.0 if cfg.absolute else cfg.m


def _spectrum_rows_for(cfg: RunConfig, n: int, l: int, k: float, t: float) -> list[dict]:
    qn = QuantumNumbers(n=n, l=l, k=k)
    coup = _couplings(cfg, t)
    geom = DefectGeometry(chi=cfg.chi)
    scale = _energy_scale(cfg)
    base = {"n": n, "l": l, "k": k, "flux": t}

    def error_row(status: str) -> dict:
        row = dict(base)
        row.update(
            scenario=cfg.scenario,
            root_index=0,
            branch="",
            eff_momentum=effective_angular_momentum(l, k, geom, coup),
            nu_solved=None,
            e_plus=None,
            e_minus=None,
            truncation_residual=None,
            status=status,
        )
        if cfg.oracle:
            row["ode_residual"] = None
            row["fd_match"] = None
        return row

    if cfg.scenario == "coulomb" and n == 1:
        # Classify closed-form failures before solving.
        eff = effective_angular_momentum(l, k, geom, coup)
        try:
            energy_ground_coulomb(cfg.m, cfg.b, coulomb_eta(eff, cfg.b), k)
        except NoRealSolution:
            return [error_row("NO_REAL_SOLUTION")]
        except DegenerateDenominator:
            return [error_row("DEGENERATE_DENOMINATOR")]

    try:
        points = solve_general_n(qn, cfg.m, geom, coup)
    except NoRoots:
        return [error_row("NO_ROOTS")]

    rows = []
    for idx, pt in enumerate(points):
        if pt.branch is None:
            e_plus, e_minus = pt.energies
            branch_label = ""
        else:
            e = pt.energies[0]
            e_plus, e_minus = (e, None) if e > 0 else (None, e)
            branch_label = "+" if pt.branch > 0 else "-"
        row = dict(base)
        row.update(
            scenario=pt.scenario,
            root_index=idx,
            branch=branch_label,
            eff_momentum=pt.eff,
            nu_solved=pt.nu_solved,
            e_plus=None if e_plus is None else e_plus / scale,
            e_minus=None if e_minus is None else e_minus / scale,
            truncation_residual=pt.trunc_rel,
            status="OK",
        )
        if cfg.oracle:
            e_ref = pt.energies[0]
            params = heun_params(
                MassProfile(cfg.m, pt.nu_solved), e_ref, k, cfg.b, pt.eff_abs
            )
            grid = RadialGrid(0.01, 8.0 * max(1.0, math.sqrt(n + pt.eff_abs)), 2000)
            row["ode_residual"] = ode_residual(pt.wavefunction, params, grid)
            if pt.scenario == COULOMB:
                row["fd_match"] = None
            else:
                mass = MassProfile(cfg.m, pt.nu_solved)
                target = e_ref * e_ref
                eigs = fd_eigensolve_free(
                    mass, pt.eff_abs, k, default_fd_grid(mass, n, pt.eff_abs)
                )
                nearest = min(eigs, key=lambda x: abs(x - target))
                row["fd_match"] = abs(nearest - target) / abs(target)
        rows.append(row)
    return rows


def cmd_spectrum(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    rows = [
        row
        for n in cfg.n
        for l in cfg.l
        for k in cfg.k
        for t in cfg.flux
        for row in _spectrum_rows_for(cfg, n, l, k, t)
    ]
    rows.sort(key=lambda r: (r["n"], r["l"], r["k"], r["flux"], r["root_index"]))

    columns = SPECTRUM_COLUMNS + (ORACLE_COLUMNS if cfg.oracle else [])
    emit(rows, columns, cfg.format, out)
    bad = [r for r in rows if r["status"] != "OK"]
    if bad:
        print(
            f"spectrum: {len(bad)} of {len(rows)} rows failed "
            f"({sorted({r['status'] for r in bad})})",
            file=err,
        )
        return EXIT_SOLVER
    return EXIT_OK


def _current_row(cfg: RunConfig, n: int, l: int, k: float, t: float) -> dict:
    geom = DefectGeometry(chi=cfg.chi)
    branch = 1 if cfg.branch == "plus" else -1
    sigma = effective_angular_momentum(l, k, geom, _couplings(cfg, t))
    row = {
        "n": n,
        "l": l,
        "k": k,
        "flux": t,
        "sigma": sigma,
        "branch": "+" if branch > 0 else "-",
        "current_analytic": None,
        "current_numeric": None,
        "abs_discrepancy": None,
        "status": "OK",
    }

    if n == 1:
        try:
            row["current_analytic"] = persistent_current_ground(
                cfg.m, k, sigma, cfg.q, branch
            )
        except UndefinedAtZeroFlux:
            row["status"] = "UNDEFINED"

    def energy_at(phi_B: float) -> float:
        coup = Couplings(b=0.0, q=cfg.q, phi_B=phi_B)
        eff = effective_angular_momentum(l, k, geom, coup)
        if n == 1:
            pair = energy_ground_free(cfg.m, eff, k)
        else:
            pts = solve_general_n(
                QuantumNumbers(n=n, l=l, k=k), cfg.m, geom, coup
            )
            pair = pts[0].energies
        return pair[0] if branch > 0 else pair[1]

    step = CURRENT_STEP_T * TWO_PI / cfg.q
    try:
        row["current_numeric"] = persistent_current_numeric(
            energy_at, t * TWO_PI / cfg.q, step
        )
    except KinkDetected:
        row["status"] = "KINK"
        return row

    if row["current_analytic"] is not None and row["current_numeric"] is not None:
        row["abs_discrepancy"] = abs(row["current_analytic"] - row["current_numeric"])
    return row


def cmd_current(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    if cfg.scenario != "ab":
        raise UsageError("current requires --scenario ab")
    rows = [
        _current_row(cfg, n, l, k, t)
        for n in cfg.n
        for l in cfg.l
        for k in cfg.k
        for t in cfg.flux
    ]
    rows.sort(key=lambda r: (r["n"], r["l"], r["k"], r["flux"]))
    emit(rows, CURRENT_COLUMNS, cfg.format, out)
    return EXIT_OK


def _verify_checks(cfg: RunConfig) -> list[dict]:
    geom = DefectGeometry(chi=cfg.chi)
    checks: list[dict] = []

    def add(name: str, status: str, measured, threshold, note: str = "") -> None:
        checks.append(
            {
                "name": name,
                "status": status,
                "measured": measured,
                "threshold": threshold,
                "note": note,
            }
        )

    def gate(name: str, measured: float, threshold: float, note: str = "") -> None:
        add(name, "PASS" if measured < threshold else "FAIL", measured, threshold, note)

    cells = [(l, k, t) for l in cfg.l for k in cfg.k for t in cfg.flux]

    # Closed-form composition: the two ground-state routes must agree.
    worst = 0.0
    for l, k, t in cells:
        eff = effective_angular_momentum(l, k, geom, _couplings(cfg, t))
        e_closed = energy_ground_free(cfg.m, eff, k)[0]
        e_comp = energy_from_lambda(nu_ground_free(cfg.m, eff), 1, abs(eff), k)[0]
        worst = max(worst, abs(e_comp - e_closed) / abs(e_closed))
    gate("energy_composition", worst, 1e-12)

    # Solver vs closed forms at n = 1.
    points = []
    worst = 0.0
    skipped = 0
    for l, k, t in cells:
        coup = _couplings(cfg, t)
        qn = QuantumNumbers(n=1, l=l, k=k)
        eff = effective_angular_momentum(l, k, geom, coup)
        if cfg.scenario == "coulomb" and cfg.b != 0.0:
            eta = coulomb_eta(eff, cfg.b)
            try:
                closed = energy_ground_coulomb(cfg.m, cfg.b, eta, k)
            except (NoRealSolution, DegenerateDenominator):
                skipped += 1
                continue
            pts = solve_general_n(qn, cfg.m, geom, coup)
            got = sorted(e for p in pts for e in p.energies)
            want = sorted(closed)
            for g, w in zip(got, want):
                worst = max(worst, abs(g - w) / abs(w))
        else:
            pts = solve_general_n(qn, cfg.m, geom, coup)
            nu_want = nu_ground_free(cfg.m, eff)
            e_want = energy_ground_free(cfg.m, eff, k)
            worst = max(worst, abs(pts[0].nu_solved - nu_want) / nu_want)
            worst = max(worst, abs(pts[0].energies[0] - e_want[0]) / e_want[0])
        points.extend(pts)
    gate(
        "closed_form_agreement",
        worst,
        1e-10,
        note=f"{skipped} cell(s) without real closed form" if skipped else "",
    )

    # Coulomb fixed point: E -> nu -> energy relation -> E.
    if cfg.scenario == "coulomb" and cfg.b != 0.0:
        worst = 0.0
        for pt in points:
            e = pt.energies[0]
            nu = nu_ground_coulomb(cfg.m, cfg.b, pt.eff_abs, e)
            back = energy_from_lambda(nu, 1, pt.eff_abs, pt.qn.k)
            e_back = back[0] if e > 0 else back[1]
            worst = max(worst, abs(e_back - e) / abs(e))
        gate("coulomb_fixed_point", worst, 1e-10)
    else:
        add("coulomb_fixed_point", "SKIP", None, 1e-10, "no Coulomb coupling configured")

    # Termination cascade on every solved point.
    worst = 0.0
    for pt in points:
        a = pt.wavefunction.coefficients.coeffs
        head = max(abs(a[: pt.qn.n + 1]).max(), 1e-300)
        tail = abs(a[pt.qn.n + 1 :]).max()
        worst = max(worst, tail / head)
    gate("truncation_cascade", worst, 1e-10)

    # ODE residual, optionally with an injected slope detuning.
    worst = 0.0
    for pt in points:
        nu = pt.nu_solved * (1.0 + cfg.detune_nu)
        e_ref = pt.energies[0]
        params = heun_params(MassProfile(cfg.m, nu), e_ref, pt.qn.k, cfg.b, pt.eff_abs)
        if cfg.detune_nu:
            coeffs = build_coefficients(params, n_max=max(pt.qn.n, 1))
            wf = RadialWavefunction(coeffs, params.alpha, pt.eff_abs, pt.qn.n)
        else:
            wf = pt.wavefunction
        grid = RadialGrid(0.01, 8.0 * max(1.0, math.sqrt(pt.qn.n + pt.eff_abs)), 2000)
        worst = max(worst, ode_residual(wf, params, grid))
    gate(
        "ode_residual",
        worst,
        1e-8,
        note=f"detune_nu={cfg.detune_nu}" if cfg.detune_nu else "",
    )

    # Finite-difference eigenvalue cross-check where it is well-conditioned.
    eligible = [p for p in points if p.scenario != COULOMB and p.eff_abs >= FD_CHECK_MIN_EFF]
    ineligible = len(points) - len(eligible)
    if eligible:
        worst = 0.0
        for pt in eligible:
            mass = MassProfile(cfg.m, pt.nu_solved)
            target = pt.energies[0] ** 2
            eigs = fd_eigensolve_free(
                mass, pt.eff_abs, pt.qn.k, default_fd_grid(mass, pt.qn.n, pt.eff_abs)
            )
            nearest = min(eigs, key=lambda x: abs(x - target))
            worst = max(worst, abs(nearest - target) / target)
        gate(
            "fd_match",
            worst,
            1e-3,
            note=f"{ineligible} point(s) skipped (|eff| < {FD_CHECK_MIN_EFF})"
            if ineligible
            else "",
        )
    else:
        add(
            "fd_match",
            "SKIP",
            None,
            1e-3,
            "no eligible points: Dirichlet-wall check needs "
            f"|eff| >= {FD_CHECK_MIN_EFF} and a non-Coulomb scenario",
        )

    # k = 0 spectra must not depend on the torsion parameter at all.
    k0 = [(l, t) for l in cfg.l for t in cfg.flux]
    mism = 0
    for l, t in k0:
        coup = _couplings(cfg, t)
        qn = QuantumNumbers(n=1, l=l, k=0.0)
        a = solve_general_n(qn, cfg.m, geom, coup)
        b_ = solve_general_n(qn, cfg.m, DefectGeometry(chi=cfg.chi + 0.5), coup)
        for pa, pb in zip(a, b_):
            if pa.nu_solved != pb.nu_solved or pa.energies != pb.energies:
                mism += 1
    add(
        "minkowski_reduction",
        "PASS" if mism == 0 else "FAIL",
        float(mism),
        0.5,
        "k=0 spectra compared bitwise across torsion values",
    )

    # Flux-scenario checks.
    if cfg.scenario == "ab":
        worst = 0.0
        for l, k, t in cells:
            e1 = energy_ground_free(
                cfg.m,
                effective_angular_momentum(l, k, geom, _couplings(cfg, t + 1.0)),
                k,
            )[0]
            e2 = energy_ground_free(
                cfg.m,
                effective_angular_momentum(l + 1, k, geom, _couplings(cfg, t)),
                k,
            )[0]
            worst = max(worst, abs(e1 - e2))
        gate("flux_periodicity", worst, 1e-12)

        worst = 0.0
        used = 0
        for l, k, t in cells:
            sigma = effective_angular_momentum(l, k, geom, _couplings(cfg, t))
            if abs(sigma) <= 10.0 * CURRENT_STEP_T:
                continue
            used += 1
            analytic = persistent_current_ground(cfg.m, k, sigma, cfg.q, 1)

            def energy_at(phi_B: float, l=l, k=k) -> float:
                coup = Couplings(b=0.0, q=cfg.q, phi_B=phi_B)
                return energy_ground_free(
                    cfg.m, effective_angular_momentum(l, k, geom, coup), k
                )[0]

            numeric = persistent_current_numeric(
                energy_at, t * TWO_PI / cfg.q, CURRENT_STEP_T * TWO_PI / cfg.q
            )
            worst = max(worst, abs(numeric - analytic) / abs(analytic))
        if used:
            gate("current_agreement", worst, 1e-8, note=f"{used} flux point(s)")
        else:
            add("current_agreement", "SKIP", None, 1e-8, "all flux points sit on the kink")
    else:
        add("flux_periodicity", "SKIP", None, 1e-12, "flux scenario not configured")
        add("current_agreement", "SKIP", None, 1e-8, "flux scenario not configured")

    return checks


def cmd_verify(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    checks = _verify_checks(cfg)
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        measured = "-" if c["measured"] is None else "%.3e" % c["measured"]
        line = f"{c['status']:<4} {c['name']:<{width}} measured={measured} threshold={c['threshold']:.1e}"
        if c["note"]:
            line += f"  ({c['note']})"
        print(line, file=out)
    n_pass = sum(1 for c in checks if c["status"] == "PASS")
    n_fail = sum(1 for c in checks if c["status"] == "FAIL")
    n_skip = sum(1 for c in checks if c["status"] == "SKIP")
    print(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped", file=out)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def emit(rows: list[dict], columns: list[str], fmt: str, out: io.TextIOBase) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
    else:
        payload = [{c: row[c] for c in columns} for row in rows]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dislospec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with RunConfig values; flags override it")
        p.add_argument("--scenario", choices=["free", "coulomb", "ab"])
        p.add_argument("--m", type=float, help="rest mass (default 1)")
        p.add_argument("--chi", type=float, help="torsion parameter (default 0)")
        p.add_argument("--b", type=float, help="Coulomb strength, signed (default 0)")
        p.add_argument("--q", type=float, help="charge (default 1)")
        p.add_argument(
            "--flux",
            help="q*Phi_B/2pi value or start:stop:step sweep (default 0)",
        )
        p.add_argument("--l", help="angular momentum value or lo..hi range (default 0..2)")
        p.add_argument("--k", help="comma list of wavenumbers (default 0)")
        p.add_argument("--n", help="radial index value or lo..hi range (default 1)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument(
            "--oracle",
            action="store_const",
            const=True,
            help="add ode_residual and fd_match columns",
        )
        p.add_argument(
            "--absolute",
            action="store_const",
            const=True,
            help="report energies in absolute units instead of units of m",
        )
        p.add_argument("--out", help="output path (default stdout)")

    p_spec = sub.add_parser("spectrum", help="tabulate bound-state slopes and energies")
    add_common(p_spec)

    p_cur = sub.add_parser("current", help="persistent current sweep (scenario ab)")
    add_common(p_cur)
    p_cur.add_argument(
        "--branch",
        choices=["plus", "minus"],
        help="energy branch to differentiate (default plus)",
    )

    p_ver = sub.add_parser("verify", help="run the invariant suite at configured parameters")
    add_common(p_ver)
    p_ver.add_argument("--detune-nu", dest="detune_nu", type=float, help=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except UsageError as exc:
        print(f"dislospec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    sink = open(cfg.out, "w", encoding="utf-8", newline="") if cfg.out else sys.stdout
    try:
        if args.command == "spectrum":
            return cmd_spectrum(cfg, sink, sys.stderr)
        if args.command == "current":
            return cmd_current(cfg, sink, sys.stderr)
        return cmd_verify(cfg, sink, sys.stderr)
    except UsageError as exc:
        print(f"dislospec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoRoots, NoRealSolution, DegenerateDenominator) as exc:
        print(f"dislospec: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        if cfg.out:
            sink.close()


if __name__ == "__main__":
    raise SystemExit(main())
