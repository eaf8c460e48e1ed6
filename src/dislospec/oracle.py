"""Independent numerical verification of the analytic solutions.

Three cross-checks that do not share the series solver's ansatz:

* ode_residual substitutes a wavefunction into the dimensionless radial
  equation using exact analytic derivatives of the envelope-times-polynomial
  form and reports the normalized residual.
* fd_eigensolve_free discretizes the original (dimensionful) radial equation
  as a vertex-centred finite-volume Sturm-Liouville problem, regular at the
  origin, and returns E^2 of one level of the symmetrized tridiagonal
  matrix, so a quantized analytic energy can be matched against the level
  at its own index in a discretization that never saw the series ansatz.
  It uses only the equation's exponent at rho = 0, not the solution's form.
* normalization integrates |R|^2 xi dxi to confirm square-integrability.

The level is found by a Sturm count on the matrix's LDL^T pivots, in plain
Python: the slope solver's kappa < 1 search, which is generic linear algebra,
not the series ansatz; each side is tested against LAPACK on its own.  numpy,
which the grids and the matrix assembly need, is imported by each function
that uses it, so importing this module, and a CLI call that prints no oracle
column, does not load it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING

from .core import HeunParams, MassProfile
from .heun import RadialWavefunction, evaluate_R
from .quantization import _sturm_pass, _sturm_root

if TYPE_CHECKING:
    import numpy as np

DEFAULT_FD_POINTS = 4000
DEFAULT_FD_RHO_MIN = 1e-3
# Largest effective momentum whose full origin exponent the finite-volume
# oracle factors out; see fd_eigensolve_free.
FD_FACTORED_MOMENTUM_MAX = 1.0
# Relative step at which Newton stops: what one double-precision pass resolves.
FD_STEP_TOL = 1e-11


class RadialGrid(namedtuple("RadialGrid", "xi_min xi_max n_points")):
    """Uniform grid on [xi_min, xi_max], origin excluded.

    Also used for grids in the dimensionful radial variable; the fields are
    named for the dimensionless one.
    """

    __slots__ = ()

    def __new__(cls, xi_min: float, xi_max: float, n_points: int) -> "RadialGrid":
        if not xi_min > 0.0:
            raise ValueError(f"xi_min must be > 0 (origin excluded), got {xi_min}")
        if not xi_max > xi_min:
            raise ValueError(f"xi_max must exceed xi_min, got {xi_max}")
        if n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {n_points}")
        return tuple.__new__(cls, (xi_min, xi_max, n_points))

    @property
    def spacing(self) -> float:
        return (self.xi_max - self.xi_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        import numpy as np

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
    import numpy as np

    xi = grid.points()
    a = wf.polynomial_coeffs()
    poly = np.polynomial.polynomial
    s = wf.nu_abs
    alpha = wf.alpha
    # At large n the unscaled xi^s G(xi) overflows and the residual reads NaN.
    # That NaN is the report, so numpy's overflow warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        g = poly.polyval(xi, a)
        dg = poly.polyval(xi, poly.polyder(a)) if len(a) > 1 else np.zeros_like(xi)
        d2g = poly.polyval(xi, poly.polyder(a, 2)) if len(a) > 2 else np.zeros_like(xi)

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
    rho_max = 10.0 / math.sqrt(mass.nu) * max(1.0, math.sqrt(n + eff_abs))
    return RadialGrid(DEFAULT_FD_RHO_MIN, rho_max, n_points)


def fd_eigensolve_free(
    mass: MassProfile,
    eff_abs: float,
    k: float,
    grid: RadialGrid,
    index: int = 0,
    near: float | None = None,
) -> float:
    """E^2 of level number index (0 = ground) of a second-order finite-volume
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

    Level index of that tridiagonal matrix is found by _tridiagonal_level,
    the slope solver's Sturm search (shared linear algebra, not the series
    ansatz): a count of its LDL^T pivots brackets the level and proves its
    index, and Newton steps on the determinant refine it.  near, such as the
    analytic E^2, only chooses where the search starts, not the level found.
    """
    import numpy as np

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
    shift = mass.m**2 + k * k
    seed = None if near is None else near - shift
    return _tridiagonal_level(diag, off, index, seed) + shift


def _tridiagonal_level(
    diag: np.ndarray, off: np.ndarray, index: int, near: float | None = None
) -> float:
    """Eigenvalue number index (ascending, from 0) of the symmetric tridiagonal
    matrix with diagonal diag and off-diagonal off: _sturm_root from the
    Gershgorin interval, seeded at near, to the relative step FD_STEP_TOL."""
    import numpy as np

    if not 0 <= index < len(diag):
        raise ValueError(f"level index {index} outside 0..{len(diag) - 1}")
    d = diag.tolist()
    off2 = [0.0] + (off * off).tolist()
    pivmin = float(np.finfo(float).tiny) * max(1.0, max(off2))
    radius = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    slope = [-1.0] * len(d)  # T is constant: d(d_j - x)/dx = -1
    sturm = partial(_sturm_pass, d, slope, off2, pivmin=pivmin)
    return _sturm_root(sturm, index, lo, hi, 0, len(d), near, FD_STEP_TOL)


def normalization(wf: RadialWavefunction, grid: RadialGrid) -> float:
    """Trapezoidal integral of |R(xi)|^2 xi dxi over the grid."""
    import numpy as np

    xi = grid.points()
    r = evaluate_R(wf, xi)
    return float(np.trapezoid(r * r * xi, xi))
