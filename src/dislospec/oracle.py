"""Independent numerical verification of the analytic solutions.

Three cross-checks that share no code with the series solver:

* ode_residual substitutes a wavefunction into the dimensionless radial
  equation using exact analytic derivatives of the envelope-times-polynomial
  form and reports the normalized residual.
* fd_eigensolve_free discretizes the original (dimensionful) radial equation
  as a vertex-centred finite-volume Sturm-Liouville problem, regular at the
  origin, and returns the lowest eigenvalues in E^2 of the symmetrized
  tridiagonal matrix, so a quantized analytic energy can be matched against
  the level at its own index in a discretization that never saw the series
  ansatz.  It uses only the equation's exponent at rho = 0, not the
  solution's form.
* normalization integrates |R|^2 xi dxi to confirm square-integrability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .core import HeunParams, MassProfile
from .heun import RadialWavefunction

DEFAULT_FD_POINTS = 4000
DEFAULT_FD_RHO_MIN = 1e-3
# Largest effective momentum whose full origin exponent the finite-volume
# oracle factors out; see fd_eigensolve_free.
FD_FACTORED_MOMENTUM_MAX = 1.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [xi_min, xi_max], origin excluded.

    Also used for grids in the dimensionful radial variable; the fields are
    named for the dimensionless one.
    """

    xi_min: float
    xi_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.xi_min > 0.0:
            raise ValueError(f"xi_min must be > 0 (origin excluded), got {self.xi_min}")
        if not self.xi_max > self.xi_min:
            raise ValueError(f"xi_max must exceed xi_min, got {self.xi_max}")
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.xi_max - self.xi_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.n_points)


def ode_residual(wf: RadialWavefunction, params: HeunParams, grid: RadialGrid) -> float:
    """Max |LHS| of the xi-form radial equation over the grid, normalized by max |R|.

    The equation checked is

        R'' + R'/xi - (s^2/xi^2) R + (mu/xi) R - xi^2 R - alpha xi R + beta R = 0

    with s = params.nu_abs.  Derivatives are exact: with R = P(xi) u(xi),
    P = exp(-xi^2/2 - alpha xi/2) and u = xi^s G, one has P'/P = -xi - alpha/2
    and the polynomial derivatives of G come from the coefficient array.  The
    normalization makes the result invariant under rescaling of R.
    """
    xi = grid.points()
    a = wf.polynomial_coeffs()
    poly = np.polynomial.polynomial
    g = poly.polyval(xi, a)
    dg = poly.polyval(xi, poly.polyder(a)) if len(a) > 1 else np.zeros_like(xi)
    d2g = poly.polyval(xi, poly.polyder(a, 2)) if len(a) > 2 else np.zeros_like(xi)

    s = wf.nu_abs
    alpha = wf.alpha
    envelope = np.exp(-0.5 * xi * xi - 0.5 * alpha * xi)
    dlog = -xi - 0.5 * alpha

    u = xi**s * g
    du = s * xi ** (s - 1.0) * g + xi**s * dg
    d2u = s * (s - 1.0) * xi ** (s - 2.0) * g + 2.0 * s * xi ** (s - 1.0) * dg + xi**s * d2g

    r = envelope * u
    dr = envelope * (dlog * u + du)
    d2r = envelope * ((dlog * dlog - 1.0) * u + 2.0 * dlog * du + d2u)

    lhs = (
        d2r
        + dr / xi
        - (params.nu_abs**2 / xi**2) * r
        + (params.mu / xi) * r
        - xi * xi * r
        - params.alpha * xi * r
        + params.beta * r
    )
    scale = float(np.max(np.abs(r)))
    if scale == 0.0:
        return float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs))) / scale


def default_fd_grid(
    mass: MassProfile, n: int, eff_abs: float, n_points: int = DEFAULT_FD_POINTS
) -> RadialGrid:
    """Default eigensolver grid: the state's xi-extent (~10 units, widened for
    higher n or momentum) mapped back to the dimensionful radius."""
    mass.require_confining()
    rho_max = 10.0 / np.sqrt(mass.nu) * max(1.0, np.sqrt(n + eff_abs))
    return RadialGrid(DEFAULT_FD_RHO_MIN, float(rho_max), n_points)


def fd_eigensolve_free(
    mass: MassProfile,
    eff_abs: float,
    k: float,
    grid: RadialGrid,
    n_eigs: int = 6,
) -> list[float]:
    """Lowest n_eigs values of E^2 from a second-order finite-volume
    discretization of the dimensionful radial equation.

    With u = sqrt(rho) R the radial equation reads

        -u'' + [ (s^2 - 1/4)/rho^2 + V ] u = W u,
        V = 2 m nu rho + nu^2 rho^2,   W = E^2 - m^2 - k^2.

    Its regular solution goes as rho^(s+1/2) at the origin.  Factoring out
    u = rho^(sigma+1/2) w with sigma = min(s, FD_FACTORED_MOMENTUM_MAX) gives
    the Sturm-Liouville form

        -(p w')' + p [ (s^2 - sigma^2)/rho^2 + V ] w = W p w,   p = rho^(2 sigma + 1),

    where w ~ rho^(s - sigma) is bounded at rho = 0.  Up to s = 1 the whole
    exponent is factored out and the centrifugal term cancels; above it the
    remainder stays in the potential, so p stays smooth on the grid (the
    full weight rho^(2s+1) changes by a factor exp((2s+1) h/rho) per cell,
    which costs accuracy at large s).

    The nodes are the grid's points.  Node i owns the control volume between
    the midpoints to its neighbours; the first volume reaches down to
    rho = 0, where p vanishes, so the origin needs no boundary condition and
    no wall.  Volume integrals of p and of the potential times p are exact,
    the flux through a midpoint is p(midpoint) (w_{i+1} - w_i)/h, and the
    outer grid edge is a Dirichlet wall.  The resulting pencil A w = W M w
    with diagonal M is symmetrized as M^{-1/2} A M^{-1/2}.
    """
    mass.require_confining()
    s = eff_abs
    sigma = min(s, FD_FACTORED_MOMENTUM_MAX)
    q = 2.0 * sigma + 2.0  # p = rho^(q - 1)

    rho = grid.points()
    h = rho[1] - rho[0]
    face = 0.5 * (rho[:-1] + rho[1:])
    # Node i (every node but the outer one) owns [edges[i], edges[i+1]].
    edges = np.concatenate(([0.0], face))

    def moment(j: float) -> np.ndarray:
        """Integral of rho^j p over each control volume."""
        e = edges ** (q + j)
        return (e[1:] - e[:-1]) / (q + j)

    weight = moment(0.0)
    pot = 2.0 * mass.m * mass.nu * moment(1.0) + mass.nu**2 * moment(2.0)
    if s > sigma:
        pot += (s * s - sigma * sigma) * moment(-2.0)
    flux = face ** (q - 1.0) / h
    diag = (np.concatenate(([0.0], flux[:-1])) + flux + pot) / weight
    off = -flux[:-1] / np.sqrt(weight[:-1] * weight[1:])
    w = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, n_eigs - 1))
    return [float(x) for x in w + mass.m**2 + k * k]


def normalization(wf: RadialWavefunction, grid: RadialGrid) -> float:
    """Trapezoidal integral of |R(xi)|^2 xi dxi over the grid."""
    xi = grid.points()
    a = wf.polynomial_coeffs()
    g = np.polynomial.polynomial.polyval(xi, a)
    r = np.exp(-0.5 * xi * xi - 0.5 * wf.alpha * xi) * xi**wf.nu_abs * g
    return float(np.trapezoid(r * r * xi, xi))
