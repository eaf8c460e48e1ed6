"""Correctness checks on CLI output, with the benchmark's own oracles.

Nothing here imports dislospec.  Each output row (spectrum or current row,
verify line) is one checked item; a missing row counts as a failed item.
The oracles:

* the energy relation E^2 = 2 nu (n + s + 1) + k^2 against the printed
  nu_solved and E;
* the n = 1 closed forms for the free/flux slope and energy and both
  Coulomb quadratic branches;
* a_{n+1} recomputed from the printed slope and energy by the three-term
  recurrence written out below;
* the complete root set where it reduces to an eigenproblem: with lam = 2n
  and a constant mu (free, flux, and Coulomb at k = 0) the truncation
  condition a_{n+1}(alpha) = 0 says alpha is an eigenvalue of a
  symmetrizable tridiagonal matrix, so every root in the solver's alpha
  window is known in advance (Golub-Welsch); the same roots give an
  independent flux derivative for the n >= 2 currents;
* expected KINK statuses, verify statuses, and exit codes.

All CLI runs use m = 1 and q = 1, so energies in units of m are absolute.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from workloads import CURRENT_COLUMNS, ORACLE_COLUMNS, SPECTRUM_COLUMNS, Invocation

# The solver's default search window in alpha = 2m/sqrt(nu).
ALPHA_MIN, ALPHA_MAX = 0.01, 50.0
# Thresholds the program documents: verify's ODE-residual gate, verify's
# finite-difference gate (applied where |eff| >= 1, as verify does) and the
# solver's own truncation acceptance.
ODE_RESIDUAL_MAX = 1e-8
FD_MATCH_MAX = 1e-3
FD_MIN_EFF = 1.0
TRUNCATION_MAX = 1e-12
# Relative tolerances of the benchmark's own oracles.
RTOL = 1e-9
RECURRENCE_RTOL = 1e-9
CURRENT_RTOL = 1e-6
# Flux step of the benchmark's own central difference, q*Phi_B/(2 pi) units.
ORACLE_FLUX_STEP = 1e-4
# The CLI's kink guard: verify's current check ignores |sigma| <= 10 * 1e-5.
VERIFY_SIGMA_GUARD = 1e-4

VERIFY_NAMES = [
    "energy_composition", "closed_form_agreement", "coulomb_fixed_point",
    "truncation_cascade", "ode_residual", "fd_match", "minkowski_reduction",
    "flux_periodicity", "current_agreement",
]
VERIFY_LINE = re.compile(
    r"^(PASS|FAIL|SKIP) +(\S+) +measured=(\S+) threshold=(\S+)(?:  \((.*)\))?$"
)


@dataclass
class Report:
    items: int = 0
    failed: int = 0
    rows_ok: int = 0  # output rows and verify lines that passed
    notes: list[str] = field(default_factory=list)
    # Oracle headroom read from --oracle output: name -> worst value seen.
    worst: dict[str, float] = field(default_factory=dict)

    def item(self, problems: list[str], what: str, is_row: bool = True) -> None:
        self.items += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{what}: {'; '.join(problems)}")
        elif is_row:
            self.rows_ok += 1

    def missing(self, count: int, what: str) -> None:
        for _ in range(count):
            self.item(["missing"], what)

    def observe(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), value)

    def merge(self, other: "Report") -> None:
        self.items += other.items
        self.failed += other.failed
        self.rows_ok += other.rows_ok
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])
        for k, v in other.worst.items():
            self.observe(k, v)


# -- oracles ---------------------------------------------------------------


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def eff_momentum(inv: Invocation, l: int, k: float, t: float) -> float:
    return l - inv.chi * k + t


def modulus(inv: Invocation, eff: float) -> float:
    return math.hypot(eff, inv.b) if inv.b else abs(eff)


def alpha_roots(n: int, s: float, mu: float) -> list[float]:
    """All alpha in the solver's window with a_{n+1}(alpha) = 0 at lam = 2n.

    Row j of the recurrence reads
        alpha (j+s+1/2) a_j = (j+1)(j+1+2s) a_{j+1} + mu a_j + (2n-2j+2) a_{j-1},
    j = 0..n, a_{-1} = a_{n+1} = 0: a generalized tridiagonal eigenproblem
    whose off-diagonal products are positive, symmetrized here by D^{-1/2}.
    """
    j = np.arange(n + 1, dtype=float)
    d = j + s + 0.5
    off = np.sqrt((j[:-1] + 1) * (j[:-1] + 1 + 2 * s) * (2 * n - 2 * j[:-1])) / np.sqrt(
        d[:-1] * d[1:]
    )
    sym = np.diag(mu / d) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(sym)
    return sorted(a for a in eigs if ALPHA_MIN < a <= ALPHA_MAX)


def expected_nus(inv: Invocation, n: int, k: float, s: float) -> list[float] | None:
    """Ascending slopes of every root the solver must return, or None where
    the constraint is not an eigenproblem (Coulomb with k != 0)."""
    if not inv.b:
        return sorted(4.0 / a**2 for a in alpha_roots(n, s, 0.0))
    if k != 0.0:
        return None
    nus = []
    for sign in (1.0, -1.0):
        mu = sign * 2.0 * inv.b * math.sqrt(2.0 * (n + s + 1.0))
        nus += [4.0 / a**2 for a in alpha_roots(n, s, mu)]
    return sorted(nus)


def coulomb_ground_energies(b: float, eta: float, k: float) -> list[float]:
    """Both quadratic branches of the n = 1 Coulomb energy with a positive slope."""
    d = 4 * b * b * eta + 8 * b * b - 2 * eta - 1
    pref = 2 * b * (eta + 2) * (2 * eta + 2) / d
    rad = 1 - d * (2 * eta + 1) * ((eta + 2) * (2 * eta + 3) + k * k) / (
        4 * b * b * (eta + 2) ** 2 * (2 * eta + 2) ** 2
    )
    out = []
    for e in (pref * (1 + math.sqrt(rad)), pref * (1 - math.sqrt(rad))):
        nu = 0.5 * (2 * eta + 3) - 2 * b * e * (2 * eta + 2) / (2 * eta + 1) + 2 * b * b * e * e / (
            2 * eta + 1
        )
        if nu > 0:
            out.append(e)
    return out


def truncation_rel(n: int, s: float, nu: float, e: float, k: float, b: float) -> float:
    """|a_{n+1}| / max|a_0..a_n| from the recurrence at the printed slope and energy."""
    sqrt_nu = math.sqrt(nu)
    alpha = 2.0 / sqrt_nu
    beta = (e * e - 1.0 - k * k) / nu
    mu = 2.0 * b * e / sqrt_nu
    lam = beta + alpha * alpha / 4.0 - 2.0 - 2.0 * s
    tau = alpha * (2.0 * s + 1.0) / 2.0 - mu
    a = [1.0, tau / (1.0 + 2.0 * s)]
    for j in range(n):
        a.append(((alpha * (j + 1) + tau) * a[j + 1] - (lam - 2 * j) * a[j]) / ((j + 2) * (j + 2 + 2 * s)))
    return abs(a[n + 1]) / max(abs(x) for x in a[: n + 1])


def ground_energy(s: float, k: float) -> float:
    return math.sqrt((2 * s + 3) * (s + 2) + k * k)


def lowest_state_energy(inv: Invocation, n: int, l: int, k: float, t: float) -> float:
    """+E of the smallest-slope root at flux t (free/flux scenario)."""
    s = abs(eff_momentum(inv, l, k, t))
    nu = expected_nus(inv, n, k, s)[0]
    return math.sqrt(2.0 * nu * (n + s + 1.0) + k * k)


# -- output parsing ----------------------------------------------------------


def _rows(stdout: bytes, columns: list[str], report: Report, what: str) -> list[dict] | None:
    reader = csv.reader(io.StringIO(stdout.decode("utf-8", "replace")))
    header = next(reader, None)
    if header != columns:
        report.item([f"header {header!r}"], what, is_row=False)
        return None
    rows = []
    for r in reader:
        if len(r) == len(columns):
            rows.append(dict(zip(columns, r)))
        else:
            report.item([f"row with {len(r)} fields: {r!r}"], what)
    return rows


def _num(text: str) -> float | None:
    return float(text) if text != "" else None


def _guarded(fn, *args) -> list[str]:
    """fn's list of problems, or one problem when a field does not parse."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return [f"unparsable field: {exc}"]


def _row_energy(row: dict) -> float | None:
    try:
        return _num(row["e_plus"]) or _num(row["e_minus"])
    except ValueError:
        return None


def _cells(inv: Invocation):
    for n in inv.ns:
        for l in inv.ls:
            for k in inv.ks:
                for t in inv.fluxes:
                    yield n, l, k, t


def _group(rows: list[dict], report: Report, what: str) -> dict:
    groups: dict = {}
    for r in rows:
        try:
            key = (int(r["n"]), int(r["l"]), float(r["k"]), round(float(r["flux"]), 9))
        except ValueError:
            report.item([f"unparsable row {r!r}"], what)
            continue
        groups.setdefault(key, []).append(r)
    return groups


def _leftovers(groups: dict, report: Report, what: str) -> None:
    for key, rows in groups.items():
        for _ in rows:
            report.item([f"row for unexpected cell {key}"], what)


# -- spectrum ----------------------------------------------------------------


def _spectrum_row(inv, row, n, l, k, t, report) -> list[str]:
    bad = []
    if row["status"] != "OK":
        return [f"status {row['status']}"]
    label = "coulomb" if inv.b else ("ab" if t != 0.0 else "free")
    if row["scenario"] != label:
        bad.append(f"scenario {row['scenario']} != {label}")
    eff = eff_momentum(inv, l, k, t)
    if abs(float(row["eff_momentum"]) - eff) > 1e-12 * max(1.0, abs(eff)):
        bad.append(f"eff_momentum {row['eff_momentum']} != {eff!r}")
    s = modulus(inv, eff)
    nu = float(row["nu_solved"])
    e_plus, e_minus = _num(row["e_plus"]), _num(row["e_minus"])
    if not nu > 0.0:
        return bad + [f"nu_solved {nu}"]
    if inv.b:
        e = e_plus if row["branch"] == "+" else e_minus
        other = e_minus if row["branch"] == "+" else e_plus
        if row["branch"] not in ("+", "-") or e is None or other is not None or (e > 0) != (row["branch"] == "+"):
            return bad + [f"branch {row['branch']!r} with e_plus={e_plus} e_minus={e_minus}"]
    else:
        e = e_plus
        if row["branch"] != "" or e is None or e_minus is None or e_minus != -e or e <= 0:
            return bad + [f"energy pair {e_plus}, {e_minus}"]
    if not close(e * e, 2.0 * nu * (n + s + 1.0) + k * k, RTOL):
        bad.append("energy relation")
    tr = float(row["truncation_residual"])
    if not 0.0 <= tr <= TRUNCATION_MAX:
        bad.append(f"truncation_residual {tr}")
    rel = truncation_rel(n, s, nu, e, k, inv.b)
    if not rel <= RECURRENCE_RTOL:
        bad.append(f"recomputed a_(n+1) relative {rel:.3e}")
    if n == 1 and not inv.b:
        if not close(nu, s + 1.5, RTOL):
            bad.append(f"nu {nu!r} != closed form {s + 1.5!r}")
        if not close(e, ground_energy(s, k), RTOL):
            bad.append("energy != closed form")
    if inv.oracle:
        ode = _num(row["ode_residual"])
        if ode is None or not ode < ODE_RESIDUAL_MAX:
            bad.append(f"ode_residual {ode}")
        else:
            report.observe("ode_residual", ode)
        fd = _num(row["fd_match"])
        if inv.b:
            if fd is not None:
                bad.append("fd_match set on a Coulomb row")
        elif fd is None or not math.isfinite(fd):
            bad.append(f"fd_match {fd}")
        elif abs(eff) >= FD_MIN_EFF:
            report.observe("fd_match_eff_ge1", fd)
            if not fd < FD_MATCH_MAX:
                bad.append(f"fd_match {fd:.3e} at |eff| >= 1")
        else:
            report.observe("fd_match_eff_lt1", fd)
    return bad


def check_spectrum(inv: Invocation, code: int, stdout: bytes, report: Report) -> None:
    what = " ".join(inv.argv)
    report.item([] if code == 0 else [f"exit code {code}"], what, is_row=False)
    columns = SPECTRUM_COLUMNS + (ORACLE_COLUMNS if inv.oracle else [])
    rows = _rows(stdout, columns, report, what)
    if rows is None:
        report.missing(sum(1 for _ in _cells(inv)), what)
        return
    groups = _group(rows, report, what)
    for n, l, k, t in _cells(inv):
        cell = groups.pop((n, l, k, round(t, 9)), [])
        where = f"{what} [n={n} l={l} k={k} flux={t}]"
        eff = eff_momentum(inv, l, k, t)
        s = modulus(inv, eff)
        want = expected_nus(inv, n, k, s)
        if n == 1 and inv.b:
            energies = sorted(coulomb_ground_energies(inv.b, s, k))
            got = [_row_energy(r) for r in cell]
            if None in got or len(got) != len(energies) or not all(
                close(g, w, RTOL) for g, w in zip(sorted(got), energies)
            ):
                for r in cell:
                    report.item([f"energies {got} != closed form {energies}"], where)
                report.missing(max(0, len(energies) - len(cell)), where)
                continue
        if want is not None and len(want) != len(cell):
            for r in cell:
                report.item([f"{len(cell)} roots, expected {len(want)}"], where)
            report.missing(max(0, len(want) - len(cell)), where)
            continue
        if not cell:
            report.missing(1, where)
            continue
        for i, r in enumerate(cell):
            bad = _guarded(_spectrum_row, inv, r, n, l, k, t, report)
            if r["root_index"] != str(i):
                bad.append(f"root_index {r['root_index']} != {i}")
            if want is not None and not bad and not close(float(r["nu_solved"]), want[i], 1e-8):
                bad.append(f"nu {r['nu_solved']} != eigen root {want[i]!r}")
            report.item(bad, where)
    _leftovers(groups, report, what)


# -- current -----------------------------------------------------------------


def check_current(inv: Invocation, code: int, stdout: bytes, report: Report) -> None:
    what = " ".join(inv.argv)
    report.item([] if code == 0 else [f"exit code {code}"], what, is_row=False)
    rows = _rows(stdout, CURRENT_COLUMNS, report, what)
    if rows is None:
        report.missing(sum(1 for _ in _cells(inv)), what)
        return
    groups = _group(rows, report, what)
    for n, l, k, t in _cells(inv):
        cell = groups.pop((n, l, k, round(t, 9)), [])
        where = f"{what} [n={n} l={l} k={k} flux={t}]"
        if not cell:
            report.missing(1, where)
            continue
        for extra in cell[1:]:
            report.item(["duplicate row"], where)
        report.item(_guarded(_current_row, inv, cell[0], n, l, k, t), where)
    _leftovers(groups, report, what)


def _current_row(inv, row, n, l, k, t) -> list[str]:
    sigma = eff_momentum(inv, l, k, t)
    bad = []
    if abs(float(row["sigma"]) - sigma) > 1e-12 * max(1.0, abs(sigma)):
        bad.append(f"sigma {row['sigma']} != {sigma!r}")
    if row["branch"] != "+":
        bad.append(f"branch {row['branch']!r}")
    analytic, numeric = _num(row["current_analytic"]), _num(row["current_numeric"])
    disc = _num(row["abs_discrepancy"])
    if abs(sigma) < 1e-12:
        if row["status"] != "KINK" or numeric is not None or analytic is not None:
            bad.append(f"sigma = 0 must read KINK with no currents, got {row['status']}")
        return bad
    if row["status"] != "OK" or numeric is None:
        return bad + [f"status {row['status']} numeric {numeric}"]
    if n == 1:
        s = abs(sigma)
        want = -(1.0 / (4.0 * math.pi)) * math.copysign(1.0, sigma) * (4 * s + 7) / ground_energy(s, k)
        if analytic is None or not close(analytic, want, 1e-10):
            bad.append(f"current_analytic {analytic} != closed form {want!r}")
    else:
        h = ORACLE_FLUX_STEP
        de = lowest_state_energy(inv, n, l, k, t + h) - lowest_state_energy(inv, n, l, k, t - h)
        want = -de / (2.0 * h) / (2.0 * math.pi)
        if analytic is not None or disc is not None:
            bad.append("n >= 2 row carries an analytic current")
    if not close(numeric, want, CURRENT_RTOL):
        bad.append(f"current_numeric {numeric} != oracle {want!r}")
    if n == 1 and analytic is not None and (disc is None or abs(disc - abs(analytic - numeric)) > 1e-15):
        bad.append(f"abs_discrepancy {disc}")
    return bad


# -- verify ------------------------------------------------------------------


def expected_verify(inv: Invocation) -> list[str]:
    cells = [(l, k, t) for l in inv.ls for k in inv.ks for t in inv.fluxes]
    sigmas = [eff_momentum(inv, l, k, t) for l, k, t in cells]
    coulomb = inv.scenario == "coulomb" and inv.b != 0.0
    ab = inv.scenario == "ab"
    status = dict.fromkeys(VERIFY_NAMES, "PASS")
    status["coulomb_fixed_point"] = "PASS" if coulomb else "SKIP"
    fd_eligible = not coulomb and any(abs(s) >= FD_MIN_EFF for s in sigmas)
    status["fd_match"] = "PASS" if fd_eligible else "SKIP"
    status["flux_periodicity"] = "PASS" if ab else "SKIP"
    status["current_agreement"] = (
        "PASS" if ab and any(abs(s) > VERIFY_SIGMA_GUARD for s in sigmas) else "SKIP"
    )
    return [status[name] for name in VERIFY_NAMES]


def _verify_line(m: re.Match, name: str, status: str) -> list[str]:
    if m.group(2) != name or m.group(1) != status:
        return [f"{m.group(1)} {m.group(2)}, expected {status} {name}"]
    if status == "PASS" and not float(m.group(3)) < float(m.group(4)):
        return [f"measured {m.group(3)} not below threshold {m.group(4)}"]
    return []


def check_verify(inv: Invocation, code: int, stdout: bytes, report: Report) -> None:
    what = " ".join(inv.argv)
    report.item([] if code == 0 else [f"exit code {code}"], what, is_row=False)
    lines = stdout.decode("utf-8", "replace").splitlines()
    want = expected_verify(inv)
    for i, (name, status) in enumerate(zip(VERIFY_NAMES, want)):
        m = VERIFY_LINE.match(lines[i]) if i < len(lines) else None
        if m is None:
            report.item([f"line {i} unparsable or missing"], f"{what} [{name}]")
            continue
        report.item(_guarded(_verify_line, m, name, status), f"{what} [{name}]")
    n_pass, n_skip = want.count("PASS"), want.count("SKIP")
    summary = f"{n_pass} passed, 0 failed, {n_skip} skipped"
    got = lines[len(VERIFY_NAMES)] if len(lines) > len(VERIFY_NAMES) else None
    complete = got == summary and len(lines) == len(VERIFY_NAMES) + 1
    report.item([] if complete else [f"summary {got!r}"], f"{what} [summary]")


CHECKERS = {"spectrum": check_spectrum, "current": check_current, "verify": check_verify}


def check(inv: Invocation, code: int, stdout: bytes) -> Report:
    report = Report()
    CHECKERS[inv.command](inv, code, stdout, report)
    return report
