"""Independent numerical verification of the analytic solutions.

Two cross-checks that do not share the series solver's ansatz:

* ode_residual substitutes a state's polynomial, times the envelope its
  parameters fix, into the dimensionless radial equation using exact
  analytic derivatives and reports the normalized residual.
* fd_eigensolve_free discretizes the original (dimensionful) radial equation
  as a vertex-centred finite-volume Sturm-Liouville problem, regular at the
  origin, and returns E^2 of one level of the symmetrized tridiagonal
  matrix, so a quantized analytic energy can be matched against the level
  at its own index in a discretization that never saw the series ansatz.
  It uses only the equation's exponent at rho = 0, not the solution's form.

The level is found by a Sturm count on the matrix's LDL^T pivots: the search
the slope solver runs on every branch but c > 0 at kappa >= 1, which is
generic linear algebra, not the series ansatz; each side is tested against
LAPACK on its own.  ode_residual and the
finite-volume assembly run on plain Python floats, so this module loads no
numpy.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial

from .core import HeunParams, MassProfile
from .quantization import _sturm_pass, _sturm_root

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


def _nodes(grid: RadialGrid) -> list[float]:
    """The points of grid as numpy.linspace places them, in a list of floats."""
    h = (grid.xi_max - grid.xi_min) / (grid.n_points - 1)
    return [grid.xi_min + i * h for i in range(grid.n_points - 1)] + [grid.xi_max]


def ode_residual(coeffs: tuple[float, ...], params: HeunParams, grid: RadialGrid) -> float:
    """Max |LHS| of the xi-form radial equation over the grid, normalized by max |R|.

    R = F G: G has the coefficients coeffs = a_0..a_n, and params fixes both
    the envelope F = xi^s exp(-xi^2/2 - alpha xi/2) and the equation checked,

        R'' + R'/xi - (s^2/xi^2) R + (mu/xi) R - xi^2 R - alpha xi R + beta R = 0,

    with s = params.nu_abs.  Derivatives are exact: with
    L = F'/F = s/xi - xi - alpha/2 (dlog below) and L' = -s/xi^2 - 1,

        R' = F (L G + G'),   R'' = F ((L^2 + L') G + 2 L G' + G''),

    and G, G' and G'' come from one Horner pass over the coefficients.  The
    normalization makes the result invariant under rescaling of R.

    At large n the unscaled G(xi) overflows; a non-finite R or LHS at any
    point, or an overflow in the exponential, makes the result NaN.
    """
    a = coeffs[::-1]
    s, mu, alpha, beta = params.nu_abs, params.mu, params.alpha, params.beta
    nu2, half_alpha = s**2, 0.5 * alpha
    exp, log, inf = math.exp, math.log, math.inf
    worst_lhs = worst_r = 0.0
    try:
        for xi in _nodes(grid):
            g = dg = d2g = 0.0
            for c in a:
                d2g = d2g * xi + 2.0 * dg
                dg = dg * xi + g
                g = g * xi + c
            inv = 1.0 / xi
            f = exp(s * log(xi) - xi * (0.5 * xi + half_alpha))
            dlog = s * inv - xi - half_alpha
            # L^2 + L' + L/xi plus the equation's own terms multiply G.
            g_term = dlog * (dlog + inv) - 1.0 - (nu2 + s) * inv * inv + mu * inv
            g_term += beta - xi * (xi + alpha)
            r = abs(f * g)
            lhs = abs(f * (g_term * g + (2.0 * dlog + inv) * dg + d2g))
            if not (r < inf and lhs < inf):  # NaN or inf
                return math.nan
            if r > worst_r:
                worst_r = r
            if lhs > worst_lhs:
                worst_lhs = lhs
    except OverflowError:
        return math.nan
    if worst_r == 0.0:
        return float(worst_lhs)
    return float(worst_lhs / worst_r)


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
    mass.require_confining()
    s = eff_abs
    sigma = min(s, FD_FACTORED_MOMENTUM_MAX)
    q = 2.0 * sigma + 2.0  # p = rho^(q - 1)

    rho = _nodes(grid)
    h = rho[1] - rho[0]
    face = [0.5 * (x + y) for x, y in zip(rho, rho[1:])]
    # Node i (every node but the outer one) owns [edges[i], edges[i+1]].
    edges = [0.0] + face

    def moment(j: float) -> list[float]:
        """Integral of rho^j p over each control volume."""
        e = [x ** (q + j) for x in edges]
        return [(y - x) / (q + j) for x, y in zip(e, e[1:])]

    weight = moment(0.0)
    two_m_nu, nu2 = 2.0 * mass.m * mass.nu, mass.nu**2
    pot = [two_m_nu * x + nu2 * y for x, y in zip(moment(1.0), moment(2.0))]
    if s > sigma:
        pot = [x + (s * s - sigma * sigma) * y for x, y in zip(pot, moment(-2.0))]
    flux = [x ** (q - 1.0) / h for x in face]
    inflow = [0.0] + flux[:-1]
    diag = [(a + b + c) / w for a, b, c, w in zip(inflow, flux, pot, weight)]
    off = [-f / math.sqrt(w0 * w1) for f, w0, w1 in zip(flux, weight, weight[1:])]
    shift = mass.m**2 + k * k
    seed = None if near is None else near - shift
    return _tridiagonal_level(diag, off, index, seed) + shift


def _tridiagonal_level(diag, off, index: int, near: float | None = None) -> float:
    """Eigenvalue number index (ascending, from 0) of the symmetric tridiagonal
    matrix with diagonal diag and off-diagonal off (any float sequences):
    _sturm_root from the Gershgorin interval, seeded at near, to the relative
    step FD_STEP_TOL."""
    d = [float(x) for x in diag]
    if not 0 <= index < len(d):
        raise ValueError(f"level index {index} outside 0..{len(d) - 1}")
    off_abs = [abs(float(x)) for x in off]
    off2 = [0.0] + [x * x for x in off_abs]
    pivmin = sys.float_info.min * max(1.0, max(off2))
    radius = [x + y for x, y in zip([0.0] + off_abs, off_abs + [0.0])]
    lo = min(x - r for x, r in zip(d, radius))
    hi = max(x + r for x, r in zip(d, radius))
    slope = [-1.0] * len(d)  # T is constant: d(d_j - x)/dx = -1
    sturm = partial(_sturm_pass, d, slope, off2, pivmin=pivmin)
    return _sturm_root(sturm, index, lo, hi, 0, len(d), near, FD_STEP_TOL)
