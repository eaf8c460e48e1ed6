"""Simultaneous solution of the two series-truncation conditions.

A bound state of radial index n exists where both

    lam = 2n            (energy relation)
    a_{n+1} = 0         (slope constraint)

hold.  The first fixes the energy in terms of the slope,

    E = +- sqrt(2 nu (n + s + 1) + k^2),      s = |effective momentum|,

and the second quantizes the slope nu itself.  For n = 1 both free and
Coulomb cases have closed forms.  For general n, write alpha = 2m/sqrt(nu).
At lam = 2n rows j = 0..n of the recurrence read

    alpha d_j a_j = (j+1)(j+1+2s) a_{j+1} + (2n-2j+2) a_{j-1} + mu a_j,

with d_j = j + s + 1/2 and a_{-1} = a_{n+1} = 0.  So a_{n+1}(alpha) = 0 says
alpha is an eigenvalue of a tridiagonal matrix (Golub-Welsch).  Its
off-diagonal products are positive, so a diagonal similarity makes it the
symmetric Jacobi matrix S(mu) = S_0 + mu D^{-1}.

On the energy relation mu = 2bE/sqrt(nu) = c sqrt(A + B alpha^2), with
c = +-2b (the sign of E), A = 2(n+s+1) and B = k^2/(4m^2).  Each root is a
fixed point alpha = lambda_i(mu(alpha)) of an eigenvalue lambda_i of S(mu).
Hellmann-Feynman gives d lambda_i/d mu = v^T D^{-1} v in (0, 1/d_0] for the
unit eigenvector v, so kappa = |c| sqrt(B)/d_0 bounds the slope of
lambda_i(mu(alpha)):

* constant mu (b k = 0, kappa = 0), c < 0 or kappa < 1: each
  lambda_i(mu(alpha)) - alpha strictly decreases (for c < 0, mu and so
  lambda_i fall as alpha grows), so root i is where the count of eigenvalues
  of S(mu(alpha)) below alpha steps to i + 1; the FD oracle's Sturm search
  finds it, bisecting to the step and then taking Newton steps on
  det(S(mu(alpha)) - alpha);
* c > 0 and kappa >= 1: a branch may cross several times or not at all.
  Substituting alpha = r(w - 1/w)/2 with r = sqrt(A/B) makes
  mu = c sqrt(A)(w + 1/w)/2, and the condition becomes the quadratic
  eigenproblem

      [w^2 (c sqrt(A) - r D) + 2w T + (c sqrt(A) + r D)] a = 0.

  In x = 1/w its leading coefficient L = c sqrt(A) + r D is positive and
  diagonal, so a -> L^{-1/2} a and T's diagonal similarity make it monic
  and symmetric, x^2 + 2x M + K with M tridiagonal and K = (c sqrt(A) - r D)/L
  diagonal (Tisseur & Meerbergen, SIAM Rev. 43 (2001) 235); numpy's eigvals
  returns the roots of its 2(n+1) companion matrix.  Where K is singular
  (c sqrt(A) = r d_j) it only adds x = 0, which is never inverted.  The real
  roots 0 < x < 1 are the alpha > 0 roots, which Newton on
  det(S(mu(alpha)) - alpha) refines.  The quadratic is used only here, where
  r <= c sqrt(A)/d_0: as k -> 0 its roots crowd at w = 1 and lose their
  digits.  This branch is the only one that imports numpy.

One rule accepts a root on every path.  count(x), the number of eigenvalues
of S(mu(x)) below x, is the number of negative LDL^T pivots of S(mu(x)) - x.
A root alpha stands only if count changes by one across it, between
alpha -+ PROOF_WIDTH max(alpha, 1) (by +1 on counted branches, by +-1 on the
pencil's), and the changes over the window's roots must add up to
count(ALPHA_MAX) - count(ALPHA_MIN): a lost root fails too.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial
from typing import Callable

from .core import (
    AB_FLUX,
    COULOMB,
    FREE,
    Couplings,
    DefectGeometry,
    MassProfile,
    QuantumNumbers,
    coulomb_eta,
    effective_angular_momentum,
    heun_params,
)
from .errors import DegenerateDenominator, NonPositiveSlope, NoRealSolution, NoRoots
from .heun import build_coefficients

# Quadratic branch formula degenerates when its denominator is this close to 0.
DEGENERATE_TOL = 1e-12

# The alpha window [ALPHA_MIN, ALPHA_MAX]; roots outside it are dropped after the
# solve.  ALPHA_MIN also drops the +-1e-16 zero eigenvalue of an odd-sized free
# Jacobi matrix.
ALPHA_MIN = 0.01
ALPHA_MAX = 50.0

# A root alpha is proven by the counts at alpha -+ PROOF_WIDTH * max(alpha, 1): wider
# than the solves' error (NEWTON_RTOL), narrower than any root spacing.
PROOF_WIDTH = 1e-13

# Newton on an alpha-dependent-mu root: step cap (companion roots), relative stop.
NEWTON_MAX_STEPS = 8
NEWTON_RTOL = 1e-14

# The FD oracle's seed near starts _sturm_root's Newton search if the counts at
# near * (1 -+ SEED_WIDTH) isolate the step: wider than the FD grid's error, about
# 1e-3 of E^2 at n = 60, and narrower than the level spacing, about 1/n.
SEED_WIDTH = 1e-2

# A companion eigenvalue x with |Im x| <= REAL_TOL * |x| counts as real; x = 1/w
# must also exceed REAL_TOL, so the root x = 0 is never inverted.
REAL_TOL = 1e-8


class SpectrumPoint(
    namedtuple(
        "SpectrumPoint",
        "qn eff eff_abs nu_solved energies params coeffs scenario branch trunc_rel",
    )
):
    """One solved bound state.

    energies is the (+E, -E) pair for the free and flux scenarios (the slope
    constraint is energy-sign blind there), or a single signed energy for a
    Coulomb branch (the constraint depends on the sign of E through mu, so
    each sign is its own solution labeled by branch = +1 or -1).  The state
    is its parameters and its polynomial: params (HeunParams at the solved
    slope and the energy mu was built from) fixes the envelope
    exp(-xi^2/2 - alpha xi/2) xi^nu_abs, and coeffs holds a_0..a_n of G.
    The other fields: qn (QuantumNumbers), eff and eff_abs (the effective
    momentum and the s the state was solved at), nu_solved, scenario, and
    trunc_rel (|a_{n+1}| relative to max |a_0..a_n|).
    """

    __slots__ = ()


def energy_from_lambda(nu: float, n: int, eff_abs: float, k: float) -> tuple[float, float]:
    """Energy pair from the lam = 2n relation: +-sqrt(2 nu (n + eff_abs + 1) + k^2)."""
    if not nu > 0.0:
        raise NonPositiveSlope(f"energy relation needs nu > 0, got {nu}")
    e = math.sqrt(2.0 * nu * (n + eff_abs + 1.0) + k * k)
    return (e, -e)


def nu_ground_free(mass_m: float, eff: float) -> float:
    """Quantized slope of the lowest free state: m^2 (|eff| + 3/2).

    Serves the flux scenario as well; eff is the flux-shifted momentum there.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    return mass_m * mass_m * (abs(eff) + 1.5)


def energy_ground_free(mass_m: float, eff: float, k: float) -> tuple[float, float]:
    """Closed-form lowest-state energies: +-m sqrt((2|eff|+3)(|eff|+2) + k^2/m^2).

    Identical to energy_from_lambda(nu_ground_free(m, eff), 1, |eff|, k).
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    s = abs(eff)
    e = mass_m * math.sqrt((2.0 * s + 3.0) * (s + 2.0) + (k * k) / (mass_m * mass_m))
    return (e, -e)


def nu_ground_coulomb(mass_m: float, b: float, eta_abs: float, E: float) -> float:
    """Quantized slope of the lowest Coulomb state at energy E.

    nu = (m^2/2)(2 eta + 3) - 2 m b E (2 eta + 2)/(2 eta + 1)
         + 2 b^2 E^2 / (2 eta + 1);
    collapses to the free m^2(eta + 3/2) when b = 0.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    two_eta = 2.0 * eta_abs
    return (
        0.5 * mass_m * mass_m * (two_eta + 3.0)
        - 2.0 * mass_m * b * E * (two_eta + 2.0) / (two_eta + 1.0)
        + 2.0 * b * b * E * E / (two_eta + 1.0)
    )


def energy_ground_coulomb(
    mass_m: float, b: float, eta_abs: float, k: float
) -> tuple[float, ...]:
    """Both quadratic branches of the lowest Coulomb state energy.

    Eliminating nu between the energy relation (n=1) and the Coulomb slope
    expression gives a quadratic in E whose solutions are

        E = pref * (1 +- sqrt(radicand)),
        pref = 2 m b (eta+2)(2 eta+2) / D,
        D    = 4 b^2 eta + 8 b^2 - 2 eta - 1,
        radicand = 1 - D (2 eta+1) [m^2 (eta+2)(2 eta+3) + k^2]
                       / [4 m^2 b^2 (eta+2)^2 (2 eta+2)^2].

    Branches whose back-substituted slope is not positive are dropped (the
    confining picture needs nu > 0); the (1+sqrt) branch is returned first.
    b = 0 dispatches to the free closed form.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    if b == 0.0:
        return energy_ground_free(mass_m, eta_abs, k)

    d = 4.0 * b * b * eta_abs + 8.0 * b * b - 2.0 * eta_abs - 1.0
    if abs(d) < DEGENERATE_TOL:
        raise DegenerateDenominator(
            f"branch denominator 4b^2 eta + 8b^2 - 2 eta - 1 = {d!r} is degenerate"
        )
    pref = 2.0 * mass_m * b * (eta_abs + 2.0) * (2.0 * eta_abs + 2.0) / d
    radicand = 1.0 - d * (2.0 * eta_abs + 1.0) * (
        mass_m * mass_m * (eta_abs + 2.0) * (2.0 * eta_abs + 3.0) + k * k
    ) / (
        4.0
        * mass_m
        * mass_m
        * b
        * b
        * (eta_abs + 2.0) ** 2
        * (2.0 * eta_abs + 2.0) ** 2
    )
    if radicand < 0.0:
        raise NoRealSolution(
            f"negative radicand {radicand!r} for m={mass_m}, b={b}, eta={eta_abs}, k={k}"
        )
    root = math.sqrt(radicand)
    branches = (pref * (1.0 + root), pref * (1.0 - root))
    return tuple(
        e for e in branches if nu_ground_coulomb(mass_m, b, eta_abs, e) > 0.0
    )


def _classify(coup: Couplings) -> str:
    if coup.b != 0.0:
        return COULOMB
    if coup.q * coup.phi_B != 0.0:
        return AB_FLUX
    return FREE


def _sturm_pass(diag: list, slope: list, off2: list, x: float, pivmin: float) -> tuple[int, float]:
    """Number of eigenvalues of T below x, and d log|det(T - x)|/dx.

    The pivots of T - x = L D L^T are q_j = diag_j - x - e_{j-1}^2 / q_{j-1};
    as many are negative as T has eigenvalues below x (Barth, Martin &
    Wilkinson, Numer. Math. 9 (1967) 386).  det(T - x) is their product, so
    the log derivative is the sum of q_j'/q_j.  T may depend on x: slope_j
    is the derivative of diag_j - x (-1 for a constant T).  A pivot below
    pivmin in magnitude is set to -pivmin, as LAPACK's dstebz does, which
    keeps e^2/q finite.  off2 holds e_{j-1}^2 with a leading 0.
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


def _sturm_root(
    sturm: Callable[[float], tuple[int, float]], index: int,
    lo: float, hi: float, n_lo: int, n_hi: int, near: float | None, rtol: float,
) -> float:
    """Where the count of sturm(x) = (count, d log|det|/dx), which never
    decreases in x, steps past index, to a relative Newton step rtol.

    [lo, hi) always holds the step: n_lo = count(lo) <= index < count(hi) =
    n_hi.  Newton starts at the seed near if the counts around it isolate the
    step, else once bisection has (n_lo == index == n_hi - 1); near only
    chooses where the search starts.  Newton steps that leave the bracket, or
    shrink by less than half, become bisection.  A pass with a non-finite
    d log|det| is followed by a probe one step rtol inside the bracket, which
    either closes it or moves its edge there."""
    # The count cannot resolve a step closer than rounding at the bracket's edges.
    floor = sys.float_info.epsilon * max(abs(lo), abs(hi))

    def probe(x: float) -> float:
        nonlocal lo, hi, n_lo, n_hi
        count, dlog = sturm(x)
        if count <= index:
            lo, n_lo = x, count
        else:
            hi, n_hi = x, count
        return dlog

    if near is not None:
        for edge in sorted((near * (1.0 - SEED_WIDTH), near * (1.0 + SEED_WIDTH))):
            if lo < edge < hi:
                probe(edge)
    if near is not None and n_lo == index == n_hi - 1 and lo < near < hi:
        x = near
    else:
        while hi - lo > floor and not n_lo == index == n_hi - 1:
            probe(0.5 * (lo + hi))
        x = 0.5 * (lo + hi)

    step_old = hi - lo
    while True:
        tol = max(rtol * abs(x), floor)
        dlog = probe(x)
        if not math.isfinite(dlog):
            # A pivot came out 0: x is within rounding of the step, or of a root
            # of a leading block.  Bisecting would crawl toward this edge if the
            # step sits on it; a probe tol inside tells which.
            x = x - tol if x == hi else x + tol
            if lo < x < hi:
                continue
            return 0.5 * (lo + hi)
        step = -1.0 / dlog if dlog != 0.0 else math.nan
        x_new = x + step
        if not lo <= x_new <= hi or abs(step) > 0.5 * step_old:
            x_new = 0.5 * (lo + hi)
            step = x_new - x
        if abs(step) <= tol or hi - lo <= tol:
            return x_new
        step_old = abs(step)
        x = x_new


def _pencil_roots(n: int, d: list, sup: list, sub: list, ca: float, r: float, sturm) -> list:
    """The alpha > 0 roots of a c > 0, kappa >= 1 branch from the quadratic
    pencil (module docstring), ascending, refined by Newton on det(S(mu(alpha)) - alpha)."""
    import numpy as np  # the one nonsymmetric eigensolve; no other solve needs numpy

    def newton(alpha: float) -> float:
        for _ in range(NEWTON_MAX_STEPS):
            step = 1.0 / sturm(alpha)[1]
            alpha -= step
            if abs(step) <= NEWTON_RTOL * abs(alpha):
                break
        return alpha

    # x^2 + 2x M + K in x = 1/w, made monic and symmetric by a -> L^{-1/2} a with
    # L = ca + r D > 0 and T's diagonal similarity; companion matrix on [a; x a].
    lead = [ca + r * dj for dj in d]
    m_off = [math.sqrt(sup[j] * sub[j] / (lead[j] * lead[j + 1])) for j in range(n)]
    m = np.diag(m_off, 1) + np.diag(m_off, -1)
    k = np.diag([(ca - r * dj) / lj for dj, lj in zip(d, lead)])
    companion = np.block([[np.zeros((n + 1, n + 1)), np.eye(n + 1)], [-k, -2.0 * m]])
    xs = [float(x.real) for x in np.linalg.eigvals(companion) if abs(x.imag) <= REAL_TOL * abs(x)]
    roots = sorted(newton(0.5 * r * (1.0 / x - x)) for x in xs if REAL_TOL < x < 1.0)
    # A near-double root can come back as a conjugate pair that converges to one alpha.
    return [a for i, a in enumerate(roots) if i == 0 or a - roots[i - 1] > 1e-9 * max(1.0, a)]


def _alpha_roots(n: int, s: float, c: float, big_a: float, big_b: float) -> list[float]:
    """The roots of a_{n+1}(alpha) = 0 at mu = c sqrt(A + B alpha^2) in
    [ALPHA_MIN, ALPHA_MAX], ascending, each proven by a step of the eigenvalue
    count (module docstring); NoRoots names a root that is not, or a lost one."""
    d = [j + s + 0.5 for j in range(n + 1)]
    sup = [(j + 1.0) * (j + 1.0 + 2.0 * s) for j in range(n)]  # T[j, j+1]
    sub = [2.0 * (n - j) for j in range(n)]  # T[j+1, j]
    # Off-diagonal of S ~ D^{-1} T; S(mu) = S_0 + mu D^{-1} has diagonal mu / d.
    off = [math.sqrt(sup[j] * sub[j] / (d[j] * d[j + 1])) for j in range(n)]
    off2 = [0.0] + [e * e for e in off]
    pivmin = sys.float_info.min * max(1.0, *off2)

    ca = c * math.sqrt(big_a)
    diag0 = [ca / dj for dj in d]
    constant = c == 0.0 or big_b == 0.0
    if constant:  # the pass on S(mu) - alpha, on a fixed diagonal
        sturm = partial(_sturm_pass, diag0, [-1.0] * (n + 1), off2, pivmin=pivmin)
    else:

        def sturm(alpha: float) -> tuple[int, float]:  # the pass on S(mu(alpha)) - alpha
            root = math.sqrt(big_a + big_b * alpha * alpha)
            mu, dmu = c * root, c * big_b * alpha / root
            diag, slope = [mu / dj for dj in d], [dmu / dj - 1.0 for dj in d]
            return _sturm_pass(diag, slope, off2, alpha, pivmin)

    n_lo, n_hi = sturm(ALPHA_MIN)[0], sturm(ALPHA_MAX)[0]
    # Constant mu is tested first: at B = inf, c = 0 would make kappa NaN.
    if constant or c < 0.0 or abs(c) * math.sqrt(big_b) < d[0]:  # one step per root
        roots = [
            _sturm_root(sturm, i, ALPHA_MIN, ALPHA_MAX, n_lo, n_hi, None, NEWTON_RTOL)
            for i in range(n_lo, n_hi)
        ]
    else:
        roots = _pencil_roots(n, d, sup, sub, ca, math.sqrt(big_a / big_b), sturm)
    roots = [a for a in roots if ALPHA_MIN <= a <= ALPHA_MAX]

    steps = 0
    for alpha in roots:
        delta = PROOF_WIDTH * max(alpha, 1.0)
        step = sturm(alpha + delta)[0] - sturm(alpha - delta)[0]
        if abs(step) != 1:
            raise NoRoots(f"the eigenvalue count does not step at alpha={alpha!r}: not a root")
        steps += step
    if steps != n_hi - n_lo:
        raise NoRoots(f"roots {roots} make {steps} of the eigenvalue count's {n_hi - n_lo} steps")
    return roots


def solve_general_n(
    qn: QuantumNumbers,
    mass_m: float,
    geom: DefectGeometry,
    coup: Couplings,
) -> list[SpectrumPoint]:
    """All bound states of radial index qn.n for the configured scenario.

    The slope constraint is solved as an eigenproblem in alpha = 2m/sqrt(nu)
    (see the module docstring) for its roots in [ALPHA_MIN, ALPHA_MAX] =
    [0.01, 50.0], each proven by an eigenvalue count; an unproven or lost
    root, or an empty window, raises NoRoots.  Each root runs the recurrence
    once through a_{n+1}: the state keeps a_0..a_n, and a_{n+1} gives
    trunc_rel, a diagnostic that gates only on overflow: a non-finite E or
    trunc_rel raises NoRoots.  The nu > 0 states are returned sorted
    ascending in nu (the physics does not single one out for n >= 2).  The
    Coulomb scenario solves the +E and -E branches separately since the
    constraint sees the sign of E through mu; free and flux scenarios are
    sign-blind and carry the full +-E pair per root.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    n = qn.n
    eff = effective_angular_momentum(qn.l, qn.k, geom, coup)
    if not math.isfinite(eff):  # chi*k overflowed; every matrix below would be non-finite
        raise OverflowError(f"effective angular momentum {eff!r} is not finite")
    scenario = _classify(coup)
    if scenario == COULOMB:
        eff_abs = coulomb_eta(eff, coup.b)
        branch_signs: tuple[int | None, ...] = (1, -1)
    else:
        eff_abs = abs(eff)
        branch_signs = (None,)

    big_a = 2.0 * (n + eff_abs + 1.0)
    big_b = qn.k * qn.k / (4.0 * mass_m * mass_m)
    points: list[SpectrumPoint] = []
    for sign in branch_signs:
        c = 2.0 * coup.b * (1 if sign is None else sign)
        for alpha_root in _alpha_roots(n, eff_abs, c, big_a, big_b):
            nu = 4.0 * mass_m * mass_m / (alpha_root * alpha_root)
            e_pair = energy_from_lambda(nu, n, eff_abs, qn.k)
            if sign is None:
                energies: tuple[float, ...] = e_pair
                e_for_mu = e_pair[0]
            else:
                e_for_mu = e_pair[0] if sign > 0 else e_pair[1]
                energies = (e_for_mu,)
            params = heun_params(MassProfile(mass_m, nu), e_for_mu, qn.k, coup.b, eff_abs)
            a = build_coefficients(params, n + 1)
            coeffs = a[: n + 1]
            trunc_rel = abs(a[n + 1]) / max(map(abs, coeffs))
            if not (math.isfinite(e_for_mu) and math.isfinite(trunc_rel)):
                raise NoRoots(f"non-finite state at alpha={alpha_root!r}: E = {e_for_mu!r}")
            points.append(
                SpectrumPoint(
                    qn=qn,
                    eff=eff,
                    eff_abs=eff_abs,
                    nu_solved=nu,
                    energies=energies,
                    params=params,
                    coeffs=coeffs,
                    scenario=scenario,
                    branch=sign,
                    trunc_rel=trunc_rel,
                )
            )

    if not points:
        raise NoRoots(
            f"no nu > 0 root of the order-{n} truncation condition in the "
            f"alpha window [{ALPHA_MIN}, {ALPHA_MAX}]"
        )
    points.sort(key=lambda p: (p.nu_solved, -(p.branch or 0)))
    return points
