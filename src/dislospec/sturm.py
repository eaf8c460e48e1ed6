"""The Sturm count of a symmetric tridiagonal matrix T, and the search for its steps.

count(x), the number of eigenvalues of T below x, is the number of negative
pivots of T - x = L D L^T (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386);
T may depend on x.  find_steps finds the x where the count steps, from brackets
whose counts at both ends are known: bisection until a bracket holds one step,
then Newton steps on det(T - x).  The slope solve and the FD oracle share this
module and nothing else: it is generic linear algebra, not the series ansatz.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from functools import partial


def _pass(diag: list, slope: list, off2: list, x: float, pivmin: float) -> tuple[int, float]:
    """Number of eigenvalues of T below x, and d log|det(T - x)|/dx.

    The pivots of T - x = L D L^T are q_j = diag_j - x - e_{j-1}^2 / q_{j-1};
    as many are negative as T has eigenvalues below x.  det(T - x) is their
    product, so the log derivative is the sum of q_j'/q_j.  slope_j is the
    derivative of diag_j - x.  A pivot below pivmin in magnitude is set to
    -pivmin, as LAPACK's dstebz does, which keeps e^2/q finite.  off2 holds
    e_{j-1}^2 with a leading 0.
    """
    count = 0
    dlog = 0.0
    q = 1.0
    r = 0.0  # q_{j-1}' / q_{j-1}
    for d, sl, e2 in zip(diag, slope, off2):
        t = e2 / q
        q = d - x - t
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        r = (t * r + sl) / q
        dlog += r
    return count, dlog


def counter(diag, off: list) -> Callable[[float], tuple[int, float]]:
    """count(x) = (eigenvalues below x, d log|det(T - x)|/dx) of the symmetric tridiagonal T
    with off-diagonal off and diagonal diag, or diag(x) = (T(x)'s diagonal, d(T_jj - x)/dx)."""
    off2 = [0.0] + [e * e for e in off]
    pivmin = sys.float_info.min * max(1.0, *off2)
    if callable(diag):
        return lambda x: _pass(*diag(x), off2, x, pivmin)
    return partial(_pass, diag, [-1.0] * len(diag), off2, pivmin=pivmin)


def gershgorin(diag: list, off: list) -> tuple[float, float]:
    """Gershgorin's [lo, hi], holding every eigenvalue of the symmetric tridiagonal (diag, off)."""
    e = [0.0, *map(abs, off), 0.0]
    radius = [x + y for x, y in zip(e, e[1:])]
    return min(x - r for x, r in zip(diag, radius)), max(x + r for x, r in zip(diag, radius))


def find_steps(
    count: Callable[[float], tuple[int, float]], brackets: list, rtol: float, wanted: range
) -> list[float]:
    """The steps numbered in wanted of count(x) = (count, d log|det|/dx),
    bracket by bracket and ascending in each, each to a relative Newton step rtol.

    Each bracket (lo, hi, count(lo), count(hi)) holds the steps between its counts
    (step i between counts i and i + 1), whether the count rises or falls across it.
    A bracket is halved until it holds one step, and only halves that hold a step in
    wanted are kept; one that cannot be halved and still holds two steps gives no
    root.  Newton starts at an isolating bracket's midpoint.  Newton steps that leave
    the bracket, or shrink by less than half, become bisection.  A pass with a
    non-finite d log|det| is followed by a probe one step rtol inside the bracket,
    which either closes it or moves its edge there; a second such pass in a row
    bisects, so the search always ends."""
    roots, todo = [], brackets[::-1]
    while todo:
        lo, hi, n_lo, n_hi = todo.pop()
        x = 0.5 * (lo + hi)
        if not max(min(n_lo, n_hi), wanted.start) < min(max(n_lo, n_hi), wanted.stop):
            continue
        if abs(n_hi - n_lo) > 1:
            if lo < x < hi:
                n_x = count(x)[0]
                todo += [(x, hi, n_x, n_hi), (lo, x, n_lo, n_x)]
            continue

        sign, step_old, finite = n_hi - n_lo, hi - lo, True
        while True:
            tol = rtol * abs(x)
            n_x, dlog = count(x)
            lo, hi = (x, hi) if sign * (n_x - n_lo) <= 0 else (lo, x)
            if not math.isfinite(dlog):
                # A pivot came out 0: x is within rounding of the step, or of a root
                # of a leading block.  Bisecting would crawl toward this edge if the
                # step sits on it; a probe tol inside tells which.
                x = (x - tol if x == hi else x + tol) if finite else 0.5 * (lo + hi)
                finite = False
                if lo < x < hi:
                    continue
                roots.append(0.5 * (lo + hi))
                break
            finite = True
            step = -1.0 / dlog if dlog != 0.0 else math.nan
            x_new = x + step
            if not lo <= x_new <= hi or abs(step) > 0.5 * step_old:
                x_new = 0.5 * (lo + hi)
                step = x_new - x
            if abs(step) <= tol or hi - lo <= tol:
                roots.append(x_new)
                break
            step_old = abs(step)
            x = x_new
    return roots
