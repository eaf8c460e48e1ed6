"""Command-line front end: spectrum tables, current sweeps, verification.

Three subcommands:

* spectrum - one row per (n, l, k, flux, root); bound-state slopes and
  energies, optionally with oracle columns.  Both oracles take alpha and beta
  from the printed slope.  fd_match compares a non-Coulomb state's beta with
  the finite-difference level, in the same xi and beta units, at its
  root_index, extrapolated from two grids sized by the state's n.
* current  - persistent current per flux point, analytic (lowest state)
  against the central flux derivative of the solved spectrum, taken of
  E - |k| so that two energies E ~ k do not cancel.  A row whose
  difference stencil reaches sigma = 0 reads KINK and carries no current.
* verify   - solves the states of every configured n and cell once and runs
  a table of invariant checks, one PASS/FAIL/SKIP line each; a check that
  measured nothing reads SKIP.  Three checks also solve cells of their own:
  minkowski_reduction the k = 0 twin of every (n, l, flux) at chi and at
  chi + 0.5, flux_periodicity (l, flux + 1) and (l + 1, flux) of every
  configured cell, and current_agreement two stencil points per n = 1 cell
  off the kink.  energy_composition checks every printed E against the
  energy relation at its printed slope.  The closed-form, Coulomb
  fixed-point and current checks cover n = 1 only.

Flux is configured as the dimensionless ratio q*Phi_B/(2 pi) everywhere, the
flux a state sees, so q, a flag of current alone, only scales the current.
Energies are reported in units of m unless --absolute is given; slopes are
always raw.  Output is deterministic: identical configuration yields
byte-identical CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 solver error, 3 verification failure.
A flag value and a config-file value of one setting go through one converter,
so they are checked by the same rule and fail with the same message.
A zero q, a non-finite number, a config string field that is not a JSON
string or an unusable --config/--out path is a usage error.  Arithmetic
overflow or underflow inside the solver (an effective angular momentum that
overflows to inf included) and running out of memory are solver errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from collections import namedtuple
from functools import partial
from itertools import product

from .core import QuantumNumbers, coulomb_eta, effective_angular_momentum
from .errors import DislospecError, NoRealSolution, NoRoots
from .heun import build_coefficients
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
# A row of the spectrum table; only nu_solved through fd_match may be left blank.
_SpectrumRow = namedtuple("_SpectrumRow", SPECTRUM_COLUMNS + ORACLE_COLUMNS, defaults=[None] * 7)
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
# A row of the current table; only the three currents and status may be left blank.
_CurrentRow = namedtuple("_CurrentRow", CURRENT_COLUMNS, defaults=[None] * 4)

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


def _one_of(message: str, *choices: str):
    """The converter of a choice setting: a string among choices, else message % value."""

    def convert(value) -> str:
        if _text(value) not in choices:
            raise UsageError(message % (value,))
        return value

    convert.metavar = "{%s}" % ",".join(choices)
    return convert


# Each subcommand and its help.  main runs cmd_<name>, looked up when called, so a
# wrapper set on the module attribute (bench/tracing.py) is the one that runs.
_COMMANDS = {
    "spectrum": "tabulate bound-state slopes and energies",
    "current": "persistent current sweep (scenario ab)",
    "verify": "run the invariant suite at configured parameters",
}
_ALL = tuple(_COMMANDS)

_Setting = namedtuple("_Setting", "default convert commands help")

# Every setting of a run, in --help order: its default, the one converter that its
# flag strings and config-file values go through, the subcommands whose parser has
# its flag, and the flag's help.  Each subcommand takes only the flags it reads;
# verify prints a fixed text table, so it takes no --format.
_SETTINGS = {
    "scenario": _Setting("free", _one_of("unknown scenario %r", "free", "coulomb", "ab"),
                         _ALL, None),
    "m": _Setting(1.0, _number, _ALL, "rest mass (default 1)"),
    "chi": _Setting(0.0, _number, _ALL, "torsion parameter (default 0)"),
    "b": _Setting(0.0, _number, _ALL, "Coulomb strength, signed (default 0)"),
    "flux": _Setting((0.0,), partial(_normalize, parse_flux), _ALL,
                     "q*Phi_B/2pi value or start:stop:step sweep (default 0)"),
    "l": _Setting((0, 1, 2), partial(_normalize, parse_int_range), _ALL,
                  "angular momentum value or lo..hi range (default 0..2)"),
    "k": _Setting((0.0,), partial(_normalize, parse_float_list), _ALL,
                  "comma list of wavenumbers (default 0)"),
    "n": _Setting((1,), partial(_normalize, parse_int_range), _ALL,
                  "radial index value or lo..hi range (default 1)"),
    "out": _Setting(None, _text, _ALL, "output path (default stdout)"),
    "format": _Setting("csv", _one_of("unknown format %r", "csv", "json"),
                       ("spectrum", "current"), None),
    "oracle": _Setting(False, _flag, ("spectrum",), "add ode_residual and fd_match columns"),
    "absolute": _Setting(False, _flag, ("spectrum",),
                         "report energies in absolute units instead of units of m"),
    "q": _Setting(1.0, _number, ("current",), "charge; scales the current (default 1)"),
    "branch": _Setting("plus", _one_of("branch must be plus or minus, got %r", "plus", "minus"),
                       ("current",), "energy branch to differentiate (default plus)"),
}
RunConfig = namedtuple("RunConfig", _SETTINGS, defaults=[s.default for s in _SETTINGS.values()])


def build_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        import json

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_values) - set(_SETTINGS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")

    # Flags win over the config file, which wins over the RunConfig defaults.
    values = {}
    try:
        for name, setting in _SETTINGS.items():
            value = getattr(args, name, None)
            if value is None:
                if name not in file_values:
                    continue
                value = file_values[name]
            values[name] = setting.convert(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"{name}: {exc}") from exc
    cfg = RunConfig(**values)

    numbers = (cfg.m, cfg.chi, cfg.b, cfg.q, *cfg.flux, *cfg.k)
    if not all(math.isfinite(x) for x in numbers):
        raise UsageError("numeric values must be finite")
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


def _json_value(value):
    # RFC 8259 has no NaN or Infinity, so a non-finite float is written as null.
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


# Points of the ODE-residual grid, and FD points per radial node of a state
# (its coarse Richardson grid has FD_POINTS_PER_NODE * (n + 1) points).
ODE_POINTS = 200
FD_POINTS_PER_NODE = 40


def _ode_residual(pt, m: float, b: float) -> float:
    """ODE residual of a solved state's polynomial in the radial equation that its
    printed nu_solved and E fix at rest mass m and Coulomb strength b."""
    from .oracle import RadialGrid, ode_residual

    grid = RadialGrid(0.01, 8.0 * max(1.0, math.sqrt(pt.qn.n + pt.eff_abs)), ODE_POINTS)
    return ode_residual(pt.coeffs, pt.params(m, b), grid)


def _fd_match(pt, m: float, index: int) -> float:
    """nu |beta_FD - beta| / E^2, the relative distance from E^2 of a non-Coulomb
    state to FD level number index; alpha and beta come from its printed slope.

    index is the state's position in its cell's ascending-nu list.  At a fixed
    slope, root i of the cell has i nodes, so by Sturm oscillation it is level
    i of the Hamiltonian that slope defines (Pryce 1993).

    The level is solved on N = FD_POINTS_PER_NODE (n + 1) and 2N - 1 points
    from xi = 1e-3 to 10 max(1, sqrt(n + s)), as the ODE grid is set in xi, so
    fd_match does not depend on m.  h halves, and the second-order error is
    cancelled by Richardson extrapolation, (4 beta(h/2) - beta(h)) / 3
    (Richardson, Phil. Trans. R. Soc. A 226 (1927) 299).  A fixed number of
    points per node keeps the error flat in n."""
    from .oracle import RadialGrid, fd_eigensolve_free

    _, alpha, beta, _ = pt.params(m, 0.0)
    xi_max = 10.0 * max(1.0, math.sqrt(pt.qn.n + pt.eff_abs))

    def level(n_points: int) -> float:
        grid = RadialGrid(1e-3, xi_max, n_points)
        # grid by keyword, as bench/tracing.py reads it
        return fd_eigensolve_free(pt.eff_abs, alpha, grid=grid, index=index, near=beta)

    coarse = FD_POINTS_PER_NODE * (pt.qn.n + 1)
    extrapolated = (4.0 * level(2 * coarse - 1) - level(coarse)) / 3.0
    return pt.nu_solved * abs(extrapolated - beta) / (pt.energies[0] * pt.energies[0])


def _solve_cell(cfg: RunConfig, n: int, l: int, k: float, t: float) -> list:
    """Every solved state of one (n, l, k, flux) cell.  A cell with none raises
    NoRoots, naming the cell, unless it is a Coulomb n = 1 cell whose closed form
    has a negative discriminant: that raises NoRealSolution.  A closed form with
    real branches, or one that cannot be evaluated (its arithmetic fails), names
    no reason, and NoRoots stands."""
    try:
        return solve_general_n(QuantumNumbers(n=n, l=l, k=k), cfg.m, chi=cfg.chi, b=cfg.b, flux=t)
    except NoRoots as exc:
        if cfg.b != 0.0 and n == 1:
            eff = effective_angular_momentum(l, k, cfg.chi, t)
            with contextlib.suppress(ArithmeticError):
                energy_ground_coulomb(cfg.m, cfg.b, coulomb_eta(eff, cfg.b), k)
        raise NoRoots(f"cell n={n}, l={l}, k={_fmt(k)}, flux={_fmt(t)}: {exc}") from exc


# The status row of a cell with no solved state, by the exception that says why.
_NO_STATE_STATUS = {
    NoRealSolution: "NO_REAL_SOLUTION",
    NoRoots: "NO_ROOTS",
}


def _spectrum_rows_for(cfg: RunConfig, n: int, l: int, k: float, t: float) -> list[_SpectrumRow]:
    scale = 1.0 if cfg.absolute else cfg.m
    # The cell's label and signed momentum lead its status row or each of its solved rows.
    cell = partial(_SpectrumRow, "coulomb" if cfg.b else "ab" if t else "free", n, l, k, t,
                   eff_momentum=effective_angular_momentum(l, k, cfg.chi, t))
    try:
        points = _solve_cell(cfg, n, l, k, t)
    except tuple(_NO_STATE_STATUS) as exc:
        return [cell(0, "", status=_NO_STATE_STATUS[type(exc)])]

    rows = []
    for idx, pt in enumerate(points):
        # (+E, -E) for a free or flux state, one signed E for a Coulomb one; nu > 0, so E != 0.
        row = cell(
            idx, {None: "", 1: "+", -1: "-"}[pt.branch],
            nu_solved=pt.nu_solved,
            e_plus=next((e / scale for e in pt.energies if e > 0), None),
            e_minus=next((e / scale for e in pt.energies if e < 0), None),
            truncation_residual=pt.trunc_rel,
            status="OK",
        )
        if cfg.oracle:
            ode = _ode_residual(pt, cfg.m, cfg.b)
            fd = None if cfg.b else _fd_match(pt, cfg.m, idx)
            row = row._replace(ode_residual=ode, fd_match=fd)
        rows.append(row)
    return rows


def cmd_spectrum(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    cells = product(cfg.n, cfg.l, cfg.k, cfg.flux)
    rows = [row for cell in cells for row in _spectrum_rows_for(cfg, *cell)]
    rows.sort(key=lambda r: (r.n, r.l, r.k, r.flux, r.root_index))

    columns = SPECTRUM_COLUMNS + (ORACLE_COLUMNS if cfg.oracle else [])
    emit(rows, columns, cfg.format, out)
    bad = [r for r in rows if r.status != "OK"]
    if bad:
        print(
            f"spectrum: {len(bad)} of {len(rows)} rows failed "
            f"({sorted({r.status for r in bad})})",
            file=err,
        )
        return EXIT_SOLVER
    return EXIT_OK


def _numeric_current(cfg: RunConfig, n: int, l: int, k: float, t: float, branch: int) -> float:
    """Central-difference current of the lowest (n, l, k) state on one branch at flux ratio t.

    The stencil is t +- CURRENT_STEP_T; I = -(q/2 pi) dE/dt turns the t-derivative
    into the current.  k does not move with the flux, so the difference is
    taken of E - |k| = 2 nu (n + s + 1) / (E_+ + |k|), from each state's printed slope
    and negated on the minus branch: two values of E itself cancel to rounding at large k."""
    from .observables import persistent_current_numeric

    def energy_at(flux: float) -> float:  # E -+ |k| on the +-E branch
        points = _solve_cell(cfg, n, l, k, flux)
        if not points:  # a lost state (a real solve raises NoRoots): NaN, so verify FAILs
            return math.nan
        pt = points[0]
        shifted = 2.0 * pt.nu_solved * (n + pt.eff_abs + 1.0) / (pt.energies[0] + abs(k))
        return shifted if branch > 0 else -shifted

    return cfg.q / (2.0 * math.pi) * persistent_current_numeric(energy_at, t, CURRENT_STEP_T)


def _current_row(cfg: RunConfig, n: int, l: int, k: float, t: float) -> _CurrentRow:
    branch = 1 if cfg.branch == "plus" else -1
    sigma = effective_angular_momentum(l, k, cfg.chi, t)
    row = partial(_CurrentRow, n, l, k, t, sigma, "+" if branch > 0 else "-")
    if abs(sigma) <= CURRENT_STEP_T:
        return row(status="KINK")

    analytic = None
    if n == 1:
        from .observables import persistent_current_ground

        analytic = persistent_current_ground(cfg.m, k, sigma, cfg.q, branch)
    numeric = _numeric_current(cfg, n, l, k, t, branch)
    discrepancy = None if analytic is None else abs(analytic - numeric)
    return row(analytic, numeric, discrepancy, "OK")


def cmd_current(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    rows = [_current_row(cfg, *cell) for cell in product(cfg.n, cfg.l, cfg.k, cfg.flux)]
    rows.sort(key=lambda r: (r.n, r.l, r.k, r.flux))
    emit(rows, CURRENT_COLUMNS, cfg.format, out)
    return EXIT_OK


# The note of a check that covers only n = 1, where the closed forms hold.
_NO_GROUND = "n = 1 not configured; the closed forms cover n = 1 only"


def _solve_population(cfg: RunConfig) -> list:
    """verify's states, solved once: [((n, l, k, t), states)] in
    product(cfg.n, cfg.l, cfg.k, cfg.flux) order.  A configured cell is missing
    only if it is a Coulomb n = 1 cell with no state whose closed form has a
    negative discriminant (the NoRealSolution cells of _solve_cell); every other
    cell is solved or raises NoRoots."""
    solved = []
    for cell in product(cfg.n, cfg.l, cfg.k, cfg.flux):
        with contextlib.suppress(NoRealSolution):
            solved.append((cell, _solve_cell(cfg, *cell)))
    return solved


def _check_energy_composition(cfg: RunConfig, solved: list):
    # Every printed E must be the lam = 2n energy of its printed slope, of its sign:
    # the parameters the other checks rebuild read the energy only through mu.
    errors = []
    for pt in (pt for _, pts in solved for pt in pts):
        plus, minus = energy_from_lambda(pt.nu_solved, pt.qn.n, pt.eff_abs, pt.qn.k)
        for e in pt.energies:
            want = plus if e > 0 else minus
            errors.append(abs(e - want) / abs(want))
    return errors, ""


def _check_closed_form_agreement(cfg: RunConfig, solved: list):
    if 1 not in cfg.n:
        return None, _NO_GROUND
    errors = []
    for (n, l, k, t), pts in solved:
        if n != 1:
            continue
        eff = effective_angular_momentum(l, k, cfg.chi, t)
        if cfg.b != 0.0:
            want = sorted(energy_ground_coulomb(cfg.m, cfg.b, coulomb_eta(eff, cfg.b), k))
            got = sorted(e for p in pts for e in p.energies)
        else:
            want = [nu_ground_free(cfg.m, eff), energy_ground_free(cfg.m, eff, k)[0]]
            got = [x for p in pts for x in (p.nu_solved, p.energies[0])]
        if len(got) != len(want):  # a lost or extra state
            errors.append(math.inf)
        errors.extend(abs(g - w) / abs(w) for g, w in zip(got, want))
    skipped = math.prod(map(len, (cfg.n, cfg.l, cfg.k, cfg.flux))) - len(solved)
    return errors, f"{skipped} cell(s) without real closed form" if skipped else ""


def _check_coulomb_fixed_point(cfg: RunConfig, solved: list):
    # E -> nu -> energy relation -> E.
    if cfg.b == 0.0:
        return None, "no Coulomb coupling configured"
    if 1 not in cfg.n:
        return None, _NO_GROUND
    errors = []
    for pt in (p for (n, *_), pts in solved if n == 1 for p in pts):
        e = pt.energies[0]
        nu = nu_ground_coulomb(cfg.m, cfg.b, pt.eff_abs, e)
        back = energy_from_lambda(nu, 1, pt.eff_abs, pt.qn.k)
        e_back = back[0] if e > 0 else back[1]
        errors.append(abs(e_back - e) / abs(e))
    return errors, ""


def _max(values) -> float:
    """The largest of values, or NaN if one is NaN: Python's max(0.0, nan) drops it."""
    return max(values, key=lambda x: (math.isnan(x), x))


# The truncation cascade builds each state's tail through this order.
CASCADE_ORDER = 64


def _check_truncation_cascade(cfg: RunConfig, solved: list):
    # A state carries a_0..a_n: the tail is built here, from its printed values.
    ratios = []
    for pt in (pt for _, pts in solved for pt in pts):
        params = pt.params(cfg.m, cfg.b)
        a = [abs(x) for x in build_coefficients(params, max(CASCADE_ORDER, pt.qn.n + 1))]
        head = max(_max(a[: pt.qn.n + 1]), 1e-300)
        ratios.append(_max(a[pt.qn.n + 1 :]) / head)
    return ratios, ""


def _check_ode_residual(cfg: RunConfig, solved: list):
    return [_ode_residual(pt, cfg.m, cfg.b) for _, pts in solved for pt in pts], ""


def _check_fd_match(cfg: RunConfig, solved: list):
    if cfg.b != 0.0:
        return None, "the finite-difference oracle has no Coulomb term"
    # At alpha = 0 the radial operator is the 2-D oscillator, with levels 4i + 2s + 2,
    # so every b = 0 cell holds (n + 1) // 2 states: a lost or extra one fails.
    errors = []
    for (n, *_), pts in solved:
        if len(pts) != (n + 1) // 2:
            errors.append(math.inf)
        errors.extend(_fd_match(pt, cfg.m, index) for index, pt in enumerate(pts))
    return errors, ""


def _check_minkowski_reduction(cfg: RunConfig, solved: list):
    # k = 0 spectra must not depend on the torsion parameter at all.  The printed
    # rows are compared, so a status row counts like a solved one.
    flat = cfg._replace(oracle=False)
    twisted = flat._replace(chi=flat.chi + 0.5)
    mismatches = sum(
        _spectrum_rows_for(flat, n, l, 0.0, t) != _spectrum_rows_for(twisted, n, l, 0.0, t)
        for n, l, t in product(flat.n, flat.l, flat.flux)
    )
    return [float(mismatches)], "k=0 spectra compared bitwise across torsion values"


def _check_flux_periodicity(cfg: RunConfig, solved: list):
    # One flux quantum reproduces the l + 1 spectrum, root by root.
    if cfg.scenario != "ab":
        return None, "flux scenario not configured"
    gaps = []
    for n, l, k, t in product(cfg.n, cfg.l, cfg.k, cfg.flux):
        shifted = _solve_cell(cfg, n, l, k, t + 1.0)
        raised = _solve_cell(cfg, n, l + 1, k, t)
        if len(shifted) != len(raised):
            gaps.append(math.inf)
        gaps.extend(abs(a.nu_solved - b.nu_solved) / b.nu_solved for a, b in zip(shifted, raised))
    return gaps, ""


def _check_current_agreement(cfg: RunConfig, solved: list):
    # q scales both currents alike, so they are compared at unit charge: a
    # subnormal q would leave the difference a few significant bits.
    cfg = cfg._replace(q=1.0)
    if cfg.scenario != "ab":
        return None, "flux scenario not configured"
    if 1 not in cfg.n:
        return None, _NO_GROUND
    rows = [_current_row(cfg, 1, l, k, t) for l, k, t in product(cfg.l, cfg.k, cfg.flux)]
    errors = [r.abs_discrepancy / abs(r.current_analytic) for r in rows if r.status == "OK"]
    return errors, f"{len(errors)} flux point(s)"


# verify's checks in print order, each with its threshold.  A check takes cfg and
# _solve_population's list and returns (values, note): values None or empty means
# SKIP, since nothing was measured; otherwise the check passes when the largest of
# its per-item values is below the threshold.
_VERIFY_CHECKS = [
    ("energy_composition", 1e-12, _check_energy_composition),
    ("closed_form_agreement", 1e-10, _check_closed_form_agreement),
    ("coulomb_fixed_point", 1e-10, _check_coulomb_fixed_point),
    ("truncation_cascade", 1e-10, _check_truncation_cascade),
    ("ode_residual", 1e-8, _check_ode_residual),
    ("fd_match", 1e-3, _check_fd_match),
    ("minkowski_reduction", 0.5, _check_minkowski_reduction),
    ("flux_periodicity", 1e-12, _check_flux_periodicity),
    ("current_agreement", 1e-8, _check_current_agreement),
]


def cmd_verify(cfg: RunConfig, out: io.TextIOBase, err: io.TextIOBase) -> int:
    solved = _solve_population(cfg)
    # Every check runs before anything prints, so a solver error leaves no partial table.
    results = [(name, threshold, *check(cfg, solved)) for name, threshold, check in _VERIFY_CHECKS]
    width = max(len(name) for name, *_ in _VERIFY_CHECKS)
    statuses = []
    for name, threshold, values, note in results:
        # _max keeps a NaN, and NaN < threshold is false.
        measured = _max(values) if values else None
        if measured is None:
            note = note or "no state to measure"
        status = "SKIP" if measured is None else "PASS" if measured < threshold else "FAIL"
        statuses.append(status)
        shown = "-" if measured is None else "%.3e" % measured
        line = f"{status:<4} {name:<{width}} measured={shown} threshold={threshold:.1e}"
        print(line + (f"  ({note})" if note else ""), file=out)
    counts = [statuses.count(s) for s in ("PASS", "FAIL", "SKIP")]
    print("%d passed, %d failed, %d skipped" % tuple(counts), file=out)
    return EXIT_OK if "FAIL" not in statuses else EXIT_VERIFY


def emit(rows: list, columns: list[str], fmt: str, out: io.TextIOBase) -> None:
    """Write rows, _SpectrumRow or _CurrentRow records, as one table of columns."""
    # Each table is one write.  No CSV field needs quoting (numbers, words, +, -, empty).
    if fmt == "csv":
        table = [columns] + [[_fmt(getattr(row, c)) for c in columns] for row in rows]
        out.write("".join(",".join(fields) + "\n" for fields in table))
    else:
        import json

        payload = [{c: _json_value(getattr(row, c)) for c in columns} for row in rows]
        out.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dislospec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with RunConfig values; flags override it")
        for name, setting in _SETTINGS.items():
            if command not in setting.commands:
                continue
            if setting.convert is _flag:
                p.add_argument(f"--{name}", action="store_const", const=True, help=setting.help)
            else:
                metavar = getattr(setting.convert, "metavar", None)
                p.add_argument(f"--{name}", metavar=metavar, help=setting.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "current" and cfg.scenario != "ab":  # before --out is opened
            raise UsageError("current requires --scenario ab")
        sink = contextlib.nullcontext(sys.stdout)
        if cfg.out:
            sink = open(cfg.out, "w", encoding="utf-8", newline="")
        with sink as out:
            return globals()[f"cmd_{args.command}"](cfg, out, sys.stderr)
    # The commands do no I/O but their output, so an OSError means the
    # output cannot be opened or written, which is a usage error like a bad flag.
    except (UsageError, OSError) as exc:
        print(f"dislospec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Overflow, underflow or exhausted memory at extreme parameters (e.g. m = 1e-200)
    # is a solver failure.
    except (DislospecError, ArithmeticError, MemoryError) as exc:
        print(f"dislospec: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
