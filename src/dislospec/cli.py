"""Command-line front end: spectrum tables, current sweeps, verification.

Three subcommands:

* spectrum - one row per (n, l, k, flux, root); bound-state slopes and
  energies, optionally with oracle columns.  fd_match compares a
  non-Coulomb state with the finite-difference level at its root_index.
* current  - persistent current per flux point, analytic (lowest state)
  against the central flux derivative of the solved spectrum.  A row whose
  difference stencil reaches sigma = 0 reads KINK and carries no current.
* verify   - solves the states of every configured n and cell once and runs
  a table of invariant checks on them, one PASS/FAIL/SKIP line each.  The
  closed-form, Coulomb fixed-point and current checks cover n = 1 only.

Flux is configured as the dimensionless ratio q*Phi_B/(2 pi) everywhere.
Energies are reported in units of m unless --absolute is given; slopes are
always raw.  Output is deterministic: identical configuration yields
byte-identical CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 solver error, 3 verification failure.
A zero q, a non-finite number, a config string field that is not a JSON
string or an unusable --config/--out path is a usage error.  Arithmetic
overflow or underflow inside the solver is a solver error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import partial
from itertools import product

import numpy as np

from .core import (
    COULOMB,
    TWO_PI,
    Couplings,
    DefectGeometry,
    MassProfile,
    QuantumNumbers,
    coulomb_eta,
    effective_angular_momentum,
)
from .errors import (
    DegenerateDenominator,
    DislospecError,
    NoRealSolution,
    NoRoots,
)
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

# Flux-ratio step used by the numeric current derivative.  sigma moves with the
# flux ratio at unit rate, so the stencil reaches the |sigma| kink exactly when
# |sigma| <= CURRENT_STEP_T.
CURRENT_STEP_T = 1e-5


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


def _normalize(parser, value):
    """Accept either the flag string form or native JSON scalars/lists; a list
    concatenates what its elements parse to."""
    if isinstance(value, str):
        return parser(value)
    if isinstance(value, (int, float)):
        return parser(str(value))
    if isinstance(value, (list, tuple)) and value:
        return tuple(x for v in value for x in parser(str(v)))
    raise UsageError(f"cannot interpret config value {value!r}")


def _number(value) -> float:
    if isinstance(value, bool):  # float(True) is 1.0: take only JSON numbers
        raise UsageError(f"m, chi, b and q must be numbers, got {value!r}")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):  # open() takes an int as a file descriptor
        raise UsageError(f"scenario, format, branch and out must be strings, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):  # bool("false") is True: take only JSON true/false
        raise UsageError(f"oracle and absolute must be true or false, got {value!r}")
    return value


# RunConfig field -> converter, applied alike to flag values and config-file values.
_CONVERTERS = {
    **dict.fromkeys(("scenario", "format", "branch", "out"), _text),
    **dict.fromkeys(("m", "chi", "b", "q"), _number),
    **dict.fromkeys(("oracle", "absolute"), _flag),
    "flux": partial(_normalize, parse_flux),
    "l": partial(_normalize, parse_int_range),
    "k": partial(_normalize, parse_float_list),
    "n": partial(_normalize, parse_int_range),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")

    # Flags win over the config file, which wins over the RunConfig defaults.
    cfg = RunConfig()
    try:
        for f in fields(RunConfig):
            value = getattr(args, f.name, None)
            if value is None:
                if f.name not in file_values:
                    continue
                value = file_values[f.name]
            setattr(cfg, f.name, _CONVERTERS[f.name](value))
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(str(exc)) from exc

    numbers = (cfg.m, cfg.chi, cfg.b, cfg.q, *cfg.flux, *cfg.k)
    if not all(math.isfinite(x) for x in numbers):
        raise UsageError("numeric values must be finite")
    if cfg.scenario not in ("free", "coulomb", "ab"):
        raise UsageError(f"unknown scenario {cfg.scenario!r}")
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.format!r}")
    if cfg.branch not in ("plus", "minus"):
        raise UsageError(f"branch must be plus or minus, got {cfg.branch!r}")
    if not cfg.m > 0.0:
        raise UsageError(f"mass must be positive, got {cfg.m}")
    if cfg.q == 0.0:
        raise UsageError("charge q must be nonzero")
    if any(nn < 1 for nn in cfg.n):
        raise UsageError("radial index n must be >= 1")
    if cfg.scenario == "free" and (cfg.b != 0.0 or any(t != 0.0 for t in cfg.flux)):
        raise UsageError("scenario 'free' requires b = 0 and zero flux")
    if cfg.scenario == "ab" and cfg.b != 0.0:  # the flux current and closed forms take b = 0
        raise UsageError("scenario 'ab' requires b = 0")
    return cfg


def _couplings(cfg: RunConfig, t: float) -> Couplings:
    # t is q*Phi_B/(2 pi); store the dimensionful flux.
    return Couplings(b=cfg.b, q=cfg.q, phi_B=t * TWO_PI / cfg.q)


def _json_value(value):
    # RFC 8259 has no NaN or Infinity, so a non-finite float is written as null.
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _ode_residual(pt) -> float:
    """ODE residual of a solved state, at the parameters the solver built it from."""
    wf = pt.wavefunction
    grid = RadialGrid(0.01, 8.0 * max(1.0, math.sqrt(pt.qn.n + pt.eff_abs)), 2000)
    return ode_residual(wf, wf.coefficients.params, grid)


def _fd_match(pt, m: float, index: int) -> float:
    """Relative distance from E^2 of a non-Coulomb state to FD level number index.

    index is the state's position in its cell's ascending-nu list.  At a fixed
    slope, root i of the cell has i nodes, so by Sturm oscillation it is level
    i of the Hamiltonian that slope defines (Pryce 1993)."""
    mass = MassProfile(m, pt.nu_solved)
    target = pt.energies[0] * pt.energies[0]
    grid = default_fd_grid(mass, pt.qn.n, pt.eff_abs)
    level = fd_eigensolve_free(mass, pt.eff_abs, pt.qn.k, grid, n_eigs=index + 1)[index]
    return abs(level - target) / abs(target)


def _solve_cell(cfg: RunConfig, n: int, l: int, k: float, t: float) -> list:
    """Every solved state of one (n, l, k, flux) cell.  A Coulomb n = 1 cell whose
    closed form has no real branch raises NoRealSolution or DegenerateDenominator
    before any solve; the solver raises NoRoots."""
    geom = DefectGeometry(chi=cfg.chi)
    coup = _couplings(cfg, t)
    if cfg.scenario == "coulomb" and n == 1:
        eff = effective_angular_momentum(l, k, geom, coup)
        energy_ground_coulomb(cfg.m, cfg.b, coulomb_eta(eff, cfg.b), k)
    return solve_general_n(QuantumNumbers(n=n, l=l, k=k), cfg.m, geom, coup)


# The status row of a cell with no solved state, by the exception that says why.
_NO_STATE_STATUS = {
    NoRealSolution: "NO_REAL_SOLUTION",
    DegenerateDenominator: "DEGENERATE_DENOMINATOR",
    NoRoots: "NO_ROOTS",
}


def _spectrum_rows_for(cfg: RunConfig, n: int, l: int, k: float, t: float) -> list[dict]:
    scale = 1.0 if cfg.absolute else cfg.m
    base = {"n": n, "l": l, "k": k, "flux": t}
    try:
        points = _solve_cell(cfg, n, l, k, t)
    except tuple(_NO_STATE_STATUS) as exc:
        eff = effective_angular_momentum(l, k, DefectGeometry(chi=cfg.chi), _couplings(cfg, t))
        row = dict(base, scenario=cfg.scenario, root_index=0, branch="", eff_momentum=eff)
        blank = ("nu_solved", "e_plus", "e_minus", "truncation_residual", *ORACLE_COLUMNS)
        return [dict(row, status=_NO_STATE_STATUS[type(exc)], **dict.fromkeys(blank))]

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
            row["ode_residual"] = _ode_residual(pt)
            row["fd_match"] = None if pt.scenario == COULOMB else _fd_match(pt, cfg.m, idx)
        rows.append(row)
    return rows


def cmd_spectrum(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    cells = product(cfg.n, cfg.l, cfg.k, cfg.flux)
    rows = [row for cell in cells for row in _spectrum_rows_for(cfg, *cell)]
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


def _numeric_current(cfg: RunConfig, n: int, l: int, k: float, t: float, branch: int) -> float:
    """Central-difference current of the lowest (n, l, k) state on one branch at flux ratio t."""
    geom = DefectGeometry(chi=cfg.chi)
    qn = QuantumNumbers(n=n, l=l, k=k)

    def energy_at(phi_B: float) -> float:
        coup = Couplings(b=0.0, q=cfg.q, phi_B=phi_B)
        pair = solve_general_n(qn, cfg.m, geom, coup)[0].energies
        return pair[0] if branch > 0 else pair[1]

    # The step is a distance in phi_B, so it takes |q|; the sign of q only flips the axis.
    step = CURRENT_STEP_T * TWO_PI / abs(cfg.q)
    return persistent_current_numeric(energy_at, t * TWO_PI / cfg.q, step)


def _current_row(cfg: RunConfig, n: int, l: int, k: float, t: float) -> dict:
    branch = 1 if cfg.branch == "plus" else -1
    sigma = effective_angular_momentum(l, k, DefectGeometry(chi=cfg.chi), _couplings(cfg, t))
    kink = abs(sigma) <= CURRENT_STEP_T
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
        "status": "KINK" if kink else "OK",
    }
    if kink:
        return row

    if n == 1:
        row["current_analytic"] = persistent_current_ground(cfg.m, k, sigma, cfg.q, branch)
    row["current_numeric"] = _numeric_current(cfg, n, l, k, t, branch)
    if row["current_analytic"] is not None:
        row["abs_discrepancy"] = abs(row["current_analytic"] - row["current_numeric"])
    return row


def cmd_current(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    if cfg.scenario != "ab":
        raise UsageError("current requires --scenario ab")
    rows = [_current_row(cfg, *cell) for cell in product(cfg.n, cfg.l, cfg.k, cfg.flux)]
    rows.sort(key=lambda r: (r["n"], r["l"], r["k"], r["flux"]))
    emit(rows, CURRENT_COLUMNS, cfg.format, out)
    return EXIT_OK


@dataclass
class _Population:
    """verify's states for every configured n and cell, solved once."""

    cfg: RunConfig
    geom: DefectGeometry
    coulomb: bool
    cells: list  # (l, k, t, effective momentum) for every configured cell
    solved: dict  # n -> [(cell, states)] for every configured n
    skipped: int = 0  # Coulomb n = 1 cells with no real closed form, hence not solved

    @property
    def points(self) -> list:
        return [pt for by_cell in self.solved.values() for _, pts in by_cell for pt in pts]


# The note of a check that covers only n = 1, where the closed forms hold.
_NO_GROUND = "n = 1 not configured; the closed forms cover n = 1 only"


def _solve_population(cfg: RunConfig) -> _Population:
    geom = DefectGeometry(chi=cfg.chi)
    cells = [
        (l, k, t, effective_angular_momentum(l, k, geom, _couplings(cfg, t)))
        for l, k, t in product(cfg.l, cfg.k, cfg.flux)
    ]
    coulomb = cfg.scenario == "coulomb" and cfg.b != 0.0
    pop = _Population(cfg, geom, coulomb, cells, {n: [] for n in cfg.n})
    for n, cell in product(cfg.n, cells):
        try:
            pop.solved[n].append((cell, _solve_cell(cfg, n, *cell[:3])))
        except (NoRealSolution, DegenerateDenominator):
            pop.skipped += 1
    return pop


def _check_energy_composition(pop: _Population):
    # The two ground-state routes, closed form and lam = 2n relation, must agree.
    errors = []
    for _, k, _, eff in pop.cells:
        e_closed = energy_ground_free(pop.cfg.m, eff, k)[0]
        e_comp = energy_from_lambda(nu_ground_free(pop.cfg.m, eff), 1, abs(eff), k)[0]
        errors.append(abs(e_comp - e_closed) / abs(e_closed))
    return errors, 1e-12, ""


def _check_closed_form_agreement(pop: _Population):
    cfg = pop.cfg
    if 1 not in cfg.n:
        return None, 1e-10, _NO_GROUND
    errors = []
    for (_, k, _, eff), pts in pop.solved[1]:
        if pop.coulomb:
            want = sorted(energy_ground_coulomb(cfg.m, cfg.b, coulomb_eta(eff, cfg.b), k))
            got = sorted(e for p in pts for e in p.energies)
        else:
            want = [nu_ground_free(cfg.m, eff), energy_ground_free(cfg.m, eff, k)[0]]
            got = [x for p in pts for x in (p.nu_solved, p.energies[0])]
        if len(got) != len(want):  # a lost or extra state
            errors.append(math.inf)
        errors.extend(abs(g - w) / abs(w) for g, w in zip(got, want))
    note = f"{pop.skipped} cell(s) without real closed form" if pop.skipped else ""
    return errors, 1e-10, note


def _check_coulomb_fixed_point(pop: _Population):
    # E -> nu -> energy relation -> E.
    if not pop.coulomb:
        return None, 1e-10, "no Coulomb coupling configured"
    if 1 not in pop.cfg.n:
        return None, 1e-10, _NO_GROUND
    errors = []
    for pt in (p for _, pts in pop.solved[1] for p in pts):
        e = pt.energies[0]
        nu = nu_ground_coulomb(pop.cfg.m, pop.cfg.b, pt.eff_abs, e)
        back = energy_from_lambda(nu, 1, pt.eff_abs, pt.qn.k)
        e_back = back[0] if e > 0 else back[1]
        errors.append(abs(e_back - e) / abs(e))
    return errors, 1e-10, ""


def _check_truncation_cascade(pop: _Population):
    ratios = []
    for pt in pop.points:
        a = pt.wavefunction.coefficients.coeffs
        head = max(abs(a[: pt.qn.n + 1]).max(), 1e-300)
        ratios.append(abs(a[pt.qn.n + 1 :]).max() / head)
    return ratios, 1e-10, ""


def _check_ode_residual(pop: _Population):
    return [_ode_residual(pt) for pt in pop.points], 1e-8, ""


def _check_fd_match(pop: _Population):
    if pop.coulomb:
        return None, 1e-3, "the finite-difference oracle has no Coulomb term"
    errors = [
        _fd_match(pt, pop.cfg.m, index)
        for by_cell in pop.solved.values()
        for _, pts in by_cell
        for index, pt in enumerate(pts)
    ]
    return errors, 1e-3, ""


def _check_minkowski_reduction(pop: _Population):
    # k = 0 spectra must not depend on the torsion parameter at all.
    cfg = pop.cfg
    mismatches = 0
    for n, l, t in product(cfg.n, cfg.l, cfg.flux):
        coup = _couplings(cfg, t)
        qn = QuantumNumbers(n=n, l=l, k=0.0)
        a = solve_general_n(qn, cfg.m, pop.geom, coup)
        b = solve_general_n(qn, cfg.m, DefectGeometry(chi=cfg.chi + 0.5), coup)
        mismatches += len(a) != len(b)
        for pa, pb in zip(a, b):
            if pa.nu_solved != pb.nu_solved or pa.energies != pb.energies:
                mismatches += 1
    return [float(mismatches)], 0.5, "k=0 spectra compared bitwise across torsion values"


def _check_flux_periodicity(pop: _Population):
    # One flux quantum reproduces the l + 1 spectrum, root by root.
    cfg = pop.cfg
    if cfg.scenario != "ab":
        return None, 1e-12, "flux scenario not configured"
    gaps = []
    for n, (l, k, t, _) in product(cfg.n, pop.cells):
        shifted = _solve_cell(cfg, n, l, k, t + 1.0)
        raised = _solve_cell(cfg, n, l + 1, k, t)
        if len(shifted) != len(raised):
            gaps.append(math.inf)
        gaps.extend(abs(a.nu_solved - b.nu_solved) / b.nu_solved for a, b in zip(shifted, raised))
    return gaps, 1e-12, ""


def _check_current_agreement(pop: _Population):
    cfg = pop.cfg
    if cfg.scenario != "ab":
        return None, 1e-8, "flux scenario not configured"
    if 1 not in cfg.n:
        return None, 1e-8, _NO_GROUND
    rows = [_current_row(cfg, 1, l, k, t) for l, k, t, _ in pop.cells]
    errors = [
        r["abs_discrepancy"] / abs(r["current_analytic"]) for r in rows if r["status"] == "OK"
    ]
    if not errors:
        return None, 1e-8, "all flux points sit on the kink"
    return errors, 1e-8, f"{len(errors)} flux point(s)"


# verify's checks in print order.  Each returns (values, threshold, note):
# values None means SKIP; otherwise the check passes when the largest of its
# per-item values is below threshold.
_VERIFY_CHECKS = [
    ("energy_composition", _check_energy_composition),
    ("closed_form_agreement", _check_closed_form_agreement),
    ("coulomb_fixed_point", _check_coulomb_fixed_point),
    ("truncation_cascade", _check_truncation_cascade),
    ("ode_residual", _check_ode_residual),
    ("fd_match", _check_fd_match),
    ("minkowski_reduction", _check_minkowski_reduction),
    ("flux_periodicity", _check_flux_periodicity),
    ("current_agreement", _check_current_agreement),
]


def cmd_verify(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    pop = _solve_population(cfg)
    # Every check runs before anything prints, so a solver error leaves no partial table.
    results = [(name, *check(pop)) for name, check in _VERIFY_CHECKS]
    width = max(len(name) for name, _ in _VERIFY_CHECKS)
    statuses = []
    for name, values, threshold, note in results:
        # np.max keeps a NaN (Python's max(0.0, nan) drops it), and NaN < threshold is false.
        measured = None if values is None else float(np.max(values, initial=0.0))
        status = "SKIP" if measured is None else "PASS" if measured < threshold else "FAIL"
        statuses.append(status)
        shown = "-" if measured is None else "%.3e" % measured
        line = f"{status:<4} {name:<{width}} measured={shown} threshold={threshold:.1e}"
        print(line + (f"  ({note})" if note else ""), file=out)
    counts = [statuses.count(s) for s in ("PASS", "FAIL", "SKIP")]
    print("%d passed, %d failed, %d skipped" % tuple(counts), file=out)
    return EXIT_OK if "FAIL" not in statuses else EXIT_VERIFY


def emit(rows: list[dict], columns: list[str], fmt: str, out: io.TextIOBase) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
    else:
        payload = [{c: _json_value(row[c]) for c in columns} for row in rows]
        out.write(json.dumps(payload, indent=2, allow_nan=False))
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
        p.add_argument("--out", help="output path (default stdout)")

    # Each subcommand takes only the flags it reads; verify prints a fixed text table.
    p_spec = sub.add_parser("spectrum", help="tabulate bound-state slopes and energies")
    add_common(p_spec)
    p_spec.add_argument("--format", choices=["csv", "json"])
    p_spec.add_argument(
        "--oracle",
        action="store_const",
        const=True,
        help="add ode_residual and fd_match columns",
    )
    p_spec.add_argument(
        "--absolute",
        action="store_const",
        const=True,
        help="report energies in absolute units instead of units of m",
    )

    p_cur = sub.add_parser("current", help="persistent current sweep (scenario ab)")
    add_common(p_cur)
    p_cur.add_argument("--format", choices=["csv", "json"])
    p_cur.add_argument(
        "--branch",
        choices=["plus", "minus"],
        help="energy branch to differentiate (default plus)",
    )

    p_ver = sub.add_parser("verify", help="run the invariant suite at configured parameters")
    add_common(p_ver)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        sink = contextlib.nullcontext(sys.stdout)
        if cfg.out:
            sink = open(cfg.out, "w", encoding="utf-8", newline="")
        with sink as out:
            if args.command == "spectrum":
                return cmd_spectrum(cfg, out, sys.stderr)
            if args.command == "current":
                return cmd_current(cfg, out, sys.stderr)
            return cmd_verify(cfg, out, sys.stderr)
    # The commands do no I/O but their output, so an OSError means the
    # output cannot be opened or written, which is a usage error like a bad flag.
    except (UsageError, OSError) as exc:
        print(f"dislospec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Overflow or underflow at extreme parameters (e.g. m = 1e-200) is a solver failure.
    except (DislospecError, ArithmeticError) as exc:
        print(f"dislospec: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
