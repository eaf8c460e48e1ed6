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
symmetric Jacobi matrix S(mu) = S_0 + mu D^{-1}, and one tridiagonal
eigensolve returns all n + 1 roots.

On the energy relation mu = 2bE/sqrt(nu) = c sqrt(A + B alpha^2), with
c = +-2b (the sign of E), A = 2(n+s+1) and B = k^2/(4m^2).  It is constant
unless b and k are both nonzero.  Otherwise each root is a fixed point
alpha = lambda_i(mu(alpha)).  Hellmann-Feynman gives
d lambda_i/d mu = v^T D^{-1} v <= 1/d_0 for the unit eigenvector v, so
kappa = |c| sqrt(B)/d_0 bounds the slope of lambda_i(mu(alpha)):

* kappa < 1: every eigen-branch crosses alpha exactly once, and Newton
  started from the k = 0 eigenvalues finds each crossing;
* kappa >= 1: a branch may cross several times or not at all.  Substituting
  alpha = r(w - 1/w)/2 with r = sqrt(A/B) makes mu = c sqrt(A)(w + 1/w)/2,
  and the condition becomes the quadratic eigenproblem

      [w^2 (c sqrt(A) - r D) + 2w T + (c sqrt(A) + r D)] a = 0,

  solved as a 2(n+1) companion pencil.  Its real roots w > 1 are the
  alpha > 0 roots, which Newton then polishes.  The pencil is used only
  here, where r <= |c| sqrt(A)/d_0: as k -> 0 its roots crowd at w = 1 and
  lose their digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, eigh_tridiagonal, eigvalsh_tridiagonal

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
from .heun import DEFAULT_N_MAX, RadialWavefunction, build_coefficients

# Quadratic branch formula degenerates when its denominator is this close to 0.
DEGENERATE_TOL = 1e-12

# Default window in alpha; roots outside it are dropped after the solve.
ALPHA_MIN = 0.01
ALPHA_MAX = 50.0

# Newton polish of an alpha-dependent-mu root: step cap and relative stop.
NEWTON_MAX_STEPS = 8
NEWTON_RTOL = 1e-14

# A pencil eigenvalue w with |Im w| <= REAL_TOL * |w| counts as real.
REAL_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumPoint:
    """One solved bound state.

    energies is the (+E, -E) pair for the free and flux scenarios (the slope
    constraint is energy-sign blind there), or a single signed energy for a
    Coulomb branch (the constraint depends on the sign of E through mu, so
    each sign is its own solution labeled by branch = +1 or -1).
    """

    qn: QuantumNumbers
    eff: float
    eff_abs: float
    nu_solved: float
    energies: tuple[float, ...]
    wavefunction: RadialWavefunction
    scenario: str
    branch: int | None
    lam: float
    trunc_rel: float


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


def _alpha_roots(n: int, s: float, c: float, big_a: float, big_b: float) -> list[float]:
    """Every real root of a_{n+1}(alpha) = 0 at mu = c sqrt(A + B alpha^2), ascending."""
    j = np.arange(n, dtype=float)
    d = np.arange(n + 1, dtype=float) + s + 0.5
    sup = (j + 1.0) * (j + 1.0 + 2.0 * s)  # T[j, j+1]
    sub = 2.0 * (n - j)  # T[j+1, j]
    off = np.sqrt(sup * sub / (d[:-1] * d[1:]))  # off-diagonal of S ~ D^{-1} T

    def polish(alpha: float, index: int | None = None) -> float:
        """Newton on lambda_i(mu(alpha)) - alpha; index None follows the
        eigenvalue nearest alpha.  Hellmann-Feynman gives the exact
        derivative d lambda/d mu = v^T D^{-1} v from the unit eigenvector v."""
        for _ in range(NEWTON_MAX_STEPS):
            root = math.sqrt(big_a + big_b * alpha * alpha)
            lam, vec = eigh_tridiagonal(c * root / d, off)
            i = int(np.argmin(np.abs(lam - alpha))) if index is None else index
            slope = float(vec[:, i] ** 2 @ (1.0 / d)) * c * big_b * alpha / root - 1.0
            step = (lam[i] - alpha) / slope
            alpha -= step
            if abs(step) <= NEWTON_RTOL * abs(alpha):
                break
        return float(alpha)

    lam0 = eigvalsh_tridiagonal(c * math.sqrt(big_a) / d, off)
    if c == 0.0 or big_b == 0.0:  # constant mu
        return lam0.tolist()
    if abs(c) * math.sqrt(big_b) < d[0]:  # kappa < 1: one root per eigen-branch
        return [polish(a, i) for i, a in enumerate(lam0)]

    r = math.sqrt(big_a / big_b)
    ca = c * math.sqrt(big_a)
    eye, zero = np.eye(n + 1), np.zeros((n + 1, n + 1))
    t = np.diag(sup, 1) + np.diag(sub, -1)
    # Companion linearization of the quadratic in w on the vector [a; w a].
    pencil_a = np.block([[zero, eye], [-(ca * eye + r * np.diag(d)), -2.0 * t]])
    pencil_b = np.block([[eye, zero], [zero, ca * eye - r * np.diag(d)]])
    ws = eig(pencil_a, pencil_b, right=False)
    real_w = [
        w.real
        for w in ws
        if np.isfinite(w) and abs(w.imag) <= REAL_TOL * abs(w) and w.real > 1.0
    ]
    roots = sorted(polish(0.5 * r * (w - 1.0 / w)) for w in real_w)
    # A near-double root can come back as a conjugate pair that polishes to one alpha.
    return [a for i, a in enumerate(roots) if i == 0 or a - roots[i - 1] > 1e-9 * max(1.0, a)]


def solve_general_n(
    qn: QuantumNumbers,
    mass_m: float,
    geom: DefectGeometry,
    coup: Couplings,
    *,
    alpha_min: float = ALPHA_MIN,
    alpha_max: float = ALPHA_MAX,
) -> list[SpectrumPoint]:
    """All bound states of radial index qn.n for the configured scenario.

    The slope constraint is solved as an eigenproblem in alpha = 2m/sqrt(nu)
    (see the module docstring), which returns every root at once; the roots
    in [alpha_min, alpha_max] are kept.  Each kept root runs the recurrence
    once, and a relative a_{n+1} above 1e-12, or NaN, raises NoRoots.  The
    nu > 0 states are returned sorted ascending in nu (the physics does not
    single one out for n >= 2).  The Coulomb scenario solves the +E and -E branches
    separately since the constraint sees the sign of E through mu; free and
    flux scenarios are sign-blind and carry the full +-E pair per root.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    n = qn.n
    eff = effective_angular_momentum(qn.l, qn.k, geom, coup)
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
            if not (alpha_root > 0.0 and alpha_min <= alpha_root <= alpha_max):
                continue
            nu = 4.0 * mass_m * mass_m / (alpha_root * alpha_root)
            e_pair = energy_from_lambda(nu, n, eff_abs, qn.k)
            if sign is None:
                energies: tuple[float, ...] = e_pair
                e_for_mu = e_pair[0]
            else:
                e_for_mu = e_pair[0] if sign > 0 else e_pair[1]
                energies = (e_for_mu,)
            params = heun_params(MassProfile(mass_m, nu), e_for_mu, qn.k, coup.b, eff_abs)
            coeffs = build_coefficients(params, n_max=max(DEFAULT_N_MAX, n + 1))
            head = float(np.max(np.abs(coeffs.coeffs[: n + 1])))
            trunc_rel = abs(float(coeffs.coeffs[n + 1])) / head
            if not trunc_rel <= 1e-12:  # a NaN residual fails too
                raise NoRoots(
                    f"root polish failed at alpha={alpha_root!r}: "
                    f"relative truncation residual {trunc_rel:.3e}"
                )
            wf = RadialWavefunction(
                coefficients=coeffs,
                alpha=params.alpha,
                nu_abs=eff_abs,
                truncation_order=n,
            )
            points.append(
                SpectrumPoint(
                    qn=qn,
                    eff=eff,
                    eff_abs=eff_abs,
                    nu_solved=nu,
                    energies=energies,
                    wavefunction=wf,
                    scenario=scenario,
                    branch=sign,
                    lam=coeffs.lam,
                    trunc_rel=trunc_rel,
                )
            )

    if not points:
        raise NoRoots(
            f"no nu > 0 root of the order-{n} truncation condition in the "
            f"alpha window ({alpha_min}, {alpha_max}]"
        )
    points.sort(key=lambda p: (p.nu_solved, -(p.branch or 0)))
    return points
