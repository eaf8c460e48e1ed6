"""Independent numerical verification of the analytic solutions.

Two cross-checks that do not share the series solver's ansatz, each on the
RadialGrid its caller gives it (cli sizes both grids to a state):

* ode_residual substitutes a state's polynomial, times the envelope its
  parameters fix, into the dimensionless radial equation using exact
  analytic derivatives and reports the normalized residual.
* fd_eigensolve_free discretizes the free radial equation for sqrt(xi) R as a
  vertex-centred finite-volume Sturm-Liouville problem, regular at the
  origin, and returns beta of one level of the symmetrized tridiagonal
  matrix, so a quantized state's beta can be matched against the level at
  its own index in a discretization that never saw the series ansatz.  It
  uses only the equation's exponent at xi = 0, not the solution's form.

The level is a step of the matrix's Sturm count, found by the sturm module,
which the slope solve shares: generic linear algebra, not the series ansatz.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import HeunParams
from .sturm import counter, find_steps, gershgorin

# Largest effective momentum whose full origin exponent the finite-volume
# oracle factors out; see fd_eigensolve_free.
FD_FACTORED_MOMENTUM_MAX = 1.0
# Relative step at which Newton stops: what one double-precision pass resolves.
FD_STEP_TOL = 1e-11
# fd_eigensolve_free's search starts in the bracket near * (1 -+ SEED_WIDTH)
# if its counts hold the level: wider than the FD grid's error, about 1e-3
# of beta at n = 60, and narrower than the level spacing, about 1/n of it.
SEED_WIDTH = 1e-2


class RadialGrid(namedtuple("RadialGrid", "xi_min xi_max n_points")):
    """Uniform grid on [xi_min, xi_max] in xi = sqrt(nu) rho, origin excluded."""

    __slots__ = ()

    def __new__(cls, xi_min: float, xi_max: float, n_points: int) -> "RadialGrid":
        if not xi_min > 0.0:
            raise ValueError(f"xi_min must be > 0 (origin excluded), got {xi_min}")
        if not xi_max > xi_min:
            raise ValueError(f"xi_max must exceed xi_min, got {xi_max}")
        if not isinstance(n_points, int) or n_points < 3:
            raise ValueError(f"n_points must be an integer >= 3, got {n_points!r}")
        return tuple.__new__(cls, (xi_min, xi_max, n_points))


def _nodes(grid: RadialGrid) -> list[float]:
    """The grid's n_points points, uniform from xi_min; the last is xi_max exactly."""
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
    result is invariant under rescaling of R, so F is divided by its peak (L = 0).

    At large n the unscaled G(xi) overflows; a non-finite R or LHS at any
    point, or an overflow in the exponential, makes the result NaN.
    """
    a = coeffs[::-1]
    s, mu, alpha, beta = params.nu_abs, params.mu, params.alpha, params.beta
    nu2, half_alpha = s**2, 0.5 * alpha
    exp, log, inf = math.exp, math.log, math.inf
    peak = 2.0 * s / (math.sqrt(half_alpha * half_alpha + 4.0 * s) + half_alpha) if s else 0.0
    log_peak = s * log(peak) - peak * (0.5 * peak + half_alpha) if peak else 0.0
    worst_lhs = worst_r = 0.0
    try:
        for xi in _nodes(grid):
            g = dg = d2g = 0.0
            for c in a:
                d2g = d2g * xi + 2.0 * dg
                dg = dg * xi + g
                g = g * xi + c
            inv = 1.0 / xi
            f = exp(s * log(xi) - xi * (0.5 * xi + half_alpha) - log_peak)
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
    return worst_lhs / worst_r if worst_r else worst_lhs


def fd_eigensolve_free(
    eff_abs: float,
    alpha: float,
    grid: RadialGrid,
    index: int = 0,
    near: float | None = None,
) -> float:
    """beta of level number index (0 = ground) of a second-order finite-volume
    discretization of the free radial equation in xi.

    With u = sqrt(xi) R the radial equation reads

        -u'' + [ (s^2 - 1/4)/xi^2 + V ] u = beta u,   V = alpha xi + xi^2,

    the one in rho = xi/sqrt(nu) divided by nu, so nu beta = E^2 - m^2 - k^2.
    Its regular solution goes as xi^(s+1/2) at the origin.  Factoring out
    u = xi^(sigma+1/2) w with sigma = min(s, FD_FACTORED_MOMENTUM_MAX) gives
    the Sturm-Liouville form

        -(p w')' + p [ (s^2 - sigma^2)/xi^2 + V ] w = beta p w,   p = xi^(2 sigma + 1),

    where w ~ xi^(s - sigma) is bounded at xi = 0.  Up to s = 1 the whole
    exponent is factored out and the centrifugal term cancels; above it the
    remainder stays in the potential, so p stays smooth on the grid (the
    full weight xi^(2s+1) changes by a factor exp((2s+1) h/xi) per cell,
    which costs accuracy at large s).

    The nodes are the grid's points.  Node i owns the control volume between
    the midpoints to its neighbours; the first volume reaches down to
    xi = 0, where p vanishes, so the origin needs no boundary condition and
    no wall.  Volume integrals of p and of the potential times p are exact,
    the flux through a midpoint is p(midpoint) (w_{i+1} - w_i)/h, and the
    outer grid edge is a Dirichlet wall.  The resulting pencil A w = beta M w
    with diagonal M is symmetrized as M^{-1/2} A M^{-1/2}.

    The level is step index of the matrix's Sturm count, which proves the index;
    sturm.find_steps finds it in the Gershgorin interval cut at near (1 -+
    SEED_WIDTH), so near, such as a state's analytic beta, picks only the start.
    """
    s = eff_abs
    sigma = min(s, FD_FACTORED_MOMENTUM_MAX)
    q = 2.0 * sigma + 2.0  # p = xi^(q - 1)

    xi = _nodes(grid)
    h = xi[1] - xi[0]
    face = [0.5 * (x + y) for x, y in zip(xi, xi[1:])]
    # Node i (every node but the outer one) owns [edges[i], edges[i+1]].
    edges = [0.0] + face

    def moment(j: float) -> list[float]:
        """Integral of xi^j p over each control volume."""
        e = [x ** (q + j) for x in edges]
        return [(y - x) / (q + j) for x, y in zip(e, e[1:])]

    weight = moment(0.0)
    pot = [alpha * x + y for x, y in zip(moment(1.0), moment(2.0))]
    if s > sigma:
        pot = [x + (s * s - sigma * sigma) * y for x, y in zip(pot, moment(-2.0))]
    flux = [x ** (q - 1.0) / h for x in face]
    inflow = [0.0] + flux[:-1]
    diag = [(a + b + c) / w for a, b, c, w in zip(inflow, flux, pot, weight)]
    if not isinstance(index, int) or not 0 <= index < len(diag):
        raise ValueError(f"level index {index!r} outside 0..{len(diag) - 1}")
    off = [f / math.sqrt(w0 * w1) for f, w0, w1 in zip(flux, weight, weight[1:])]  # -T[i, i+1]
    lo, hi = gershgorin(diag, off)
    sturm = counter(diag, off)
    seeds = () if near is None else sorted((near * (1.0 - SEED_WIDTH), near * (1.0 + SEED_WIDTH)))
    # The seeds cut the Gershgorin bracket in up to three; the search keeps the level's.
    edges = [(lo, 0), *((x, sturm(x)[0]) for x in seeds if lo < x < hi), (hi, len(diag))]
    brackets = [(x, y, n_x, n_y) for (x, n_x), (y, n_y) in zip(edges, edges[1:])]
    return find_steps(sturm, brackets, FD_STEP_TOL, range(index, index + 1))[0]
