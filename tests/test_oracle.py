import math
import sys
from itertools import product

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from dislospec import cli, oracle
from dislospec import (
    HeunParams,
    QuantumNumbers,
    RadialGrid,
    build_coefficients,
    energy_ground_free,
    fd_eigensolve_free,
    nu_ground_free,
    ode_residual,
    solve_general_n,
)
from dislospec.heun import lambda_bar, tau_bar
from test_acceptance import params_at_energy


def ground_state():
    pt = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, chi=0.0)[0]
    params = params_at_energy(1.0, pt.nu_solved, pt.energies[0], 0.0, 0.0, 0.0)
    return pt, params


class TestRadialGrid:
    def test_rejects_nonpositive_origin(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                RadialGrid(bad, 1.0, 10)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            RadialGrid(2.0, 1.0, 10)

    def test_rejects_degenerate_point_count(self):
        with pytest.raises(ValueError):
            RadialGrid(1.0, 2.0, 2)

    def test_rejects_a_non_integer_point_count(self):
        # A float count would pass construction and fail later inside _nodes.
        with pytest.raises(ValueError, match="n_points must be an integer"):
            RadialGrid(0.01, 8.0, 200.0)

    def test_nodes_span_the_grid_uniformly(self):
        # Both oracles evaluate on these points: n_points of them, the ends
        # exactly xi_min and xi_max, uniformly spaced to rounding.
        for xi_min, xi_max, n_points in [(1.0, 2.0, 11), (0.01, 8.0, 200), (1e-3, 17.3, 4001)]:
            xs = oracle._nodes(RadialGrid(xi_min, xi_max, n_points))
            assert len(xs) == n_points
            assert all(type(x) is float for x in xs)
            assert xs[0] == xi_min and xs[-1] == xi_max
            h = (xi_max - xi_min) / (n_points - 1)
            steps = [b - a for a, b in zip(xs, xs[1:])]
            assert max(abs(d - h) for d in steps) <= 8 * sys.float_info.epsilon * xi_max


class TestOdeResidual:
    def test_ground_state_satisfies_equation(self):
        pt, params = ground_state()
        grid = RadialGrid(0.01, 8.0, 2000)
        assert ode_residual(pt.coeffs, params, grid) < 1e-10

    def test_all_third_level_roots(self):
        grid = RadialGrid(0.01, 8.0 * math.sqrt(3.0), 2000)
        for pt in solve_general_n(QuantumNumbers(3, 0, 0.0), 1.0, chi=0.0):
            params = params_at_energy(1.0, pt.nu_solved, pt.energies[0], 0.0, 0.0, 0.0)
            assert ode_residual(pt.coeffs, params, grid) < 1e-8

    def test_coulomb_branches_satisfy_equation(self):
        grid = RadialGrid(0.01, 8.0, 2000)
        for pt in solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, chi=0.0, b=0.1):
            params = params_at_energy(1.0, pt.nu_solved, pt.energies[0], 0.0, 0.1, pt.eff_abs)
            assert ode_residual(pt.coeffs, params, grid) < 1e-8

    def test_detuned_slope_is_detected(self):
        # rebuild the degree-1 polynomial from a 1% detuned slope; the
        # residual must rise far above the quantized-solution floor
        pt, _ = ground_state()
        nu = pt.nu_solved * 1.01
        params = params_at_energy(1.0, nu, pt.energies[0], 0.0, 0.0, 0.0)
        coeffs = build_coefficients(params, n_max=1)
        grid = RadialGrid(0.01, 8.0, 2000)
        assert ode_residual(coeffs, params, grid) > 1e-4

    def test_invariant_under_amplitude_rescaling(self):
        pt, _ = ground_state()
        nu = pt.nu_solved * 1.01
        params = params_at_energy(1.0, nu, pt.energies[0], 0.0, 0.0, 0.0)
        coeffs = build_coefficients(params, n_max=1)
        scaled = tuple(1e6 * x for x in coeffs)
        grid = RadialGrid(0.01, 8.0, 2000)
        base = ode_residual(coeffs, params, grid)
        big = ode_residual(scaled, params, grid)
        assert big == pytest.approx(base, rel=1e-10)

    @pytest.mark.parametrize("n, l", [(1, 40000), (3, 1000)])
    def test_large_momentum_envelope_stays_finite(self, n, l):
        # xi^s exp(-xi^2/2 - alpha xi/2) overflows near xi ~ sqrt(s) on the
        # verify grid; divided by its peak, it cannot.
        pts = solve_general_n(QuantumNumbers(n, l, 0.0), 1.0, chi=0.0)
        assert pts
        for pt in pts:
            grid = RadialGrid(0.01, 8.0 * math.sqrt(n + pt.eff_abs), 200)
            assert ode_residual(pt.coeffs, pt.params(1.0, 0.0), grid) < 1e-8

    @staticmethod
    def envelope(params, xi):
        return xi**params.nu_abs * np.exp(-0.5 * xi**2 - 0.5 * params.alpha * xi)

    def test_residual_is_the_envelope_times_the_series_equation(self):
        # With R = F G, the radial equation reads F H[G], where
        # H[G] = G'' + ((2s+1)/xi - 2xi - alpha) G' + (lam - tau/xi) G is the
        # equation the series solves: this holds for any parameters and any G,
        # so the residual checks the series' own equation, not the ansatz.
        rng = np.random.default_rng(28)
        for _ in range(200):
            s, alpha, mu = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0)
            params = HeunParams(s, alpha, rng.uniform(-5.0, 10.0), mu)
            lam = params.beta + alpha**2 / 4 - 2 * (s + 1)
            tau = alpha * (s + 0.5) - mu
            assert (lam, tau) == pytest.approx((lambda_bar(params), tau_bar(params)), abs=1e-12)
            g = np.polynomial.Polynomial(rng.normal(size=rng.integers(1, 8)))
            lo = rng.uniform(0.01, 2.0)
            grid = RadialGrid(lo, lo + rng.uniform(0.1, 6.0), 7)
            xi = np.linspace(*grid)
            h = g.deriv(2)(xi) + ((2 * s + 1) / xi - 2 * xi - alpha) * g.deriv()(xi)
            h += (lam - tau / xi) * g(xi)
            f = self.envelope(params, xi)
            want = np.max(np.abs(f * h)) / np.max(np.abs(f * g(xi)))
            assert ode_residual(tuple(g.coef), params, grid) == pytest.approx(want, rel=1e-9)

    def test_residual_of_a_detuned_state_is_its_truncation_term(self):
        # For the recurrence's a_0..a_n every power of H[G] cancels but one:
        # H[G] = -(n+1)(n+1+2s) a_{n+1} xi^(n-1).  So on a state the CLI's residual
        # is a weighted truncation residual, and restates the truncation condition.
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8, 12, 24, 40, 60):
            l, k, b = int(rng.integers(0, 4)), rng.choice([0.0, 0.7]), rng.choice([0.0, 0.1])
            for pt in solve_general_n(QuantumNumbers(n, l, k), 1.0, chi=0.2, b=b):
                pt = pt._replace(nu_solved=pt.nu_solved * 1.01)
                params = pt.params(1.0, b)
                a = build_coefficients(params, n + 1)
                s = params.nu_abs
                xi = np.linspace(0.01, 8.0 * max(1.0, math.sqrt(n + s)), cli.ODE_POINTS)
                f = self.envelope(params, xi)
                g = np.polynomial.Polynomial(a[: n + 1])(xi)
                want = (n + 1) * (n + 1 + 2 * s) * abs(a[n + 1]) * np.max(f * xi ** (n - 1))
                want /= np.max(np.abs(f * g))
                got = cli._ode_residual(pt._replace(coeffs=a[: n + 1]), 1.0, b)
                assert got == pytest.approx(want, rel=1e-4), (n, l, k, b)

    def test_zero_wavefunction_degenerate_path(self):
        # R = 0 at every point: no residual is measured, so none may read 0.
        _, params = ground_state()
        assert math.isnan(ode_residual((0.0, 0.0), params, RadialGrid(0.01, 8.0, 100)))


def fd_e2(m, nu, eff_abs, k, grid, index=0, near=None):
    """E^2 of FD level index on a grid in rho, through xi = sqrt(nu) rho and
    E^2 = nu beta + m^2 + k^2; near is an E^2 too."""
    root_nu, shift = math.sqrt(nu), m**2 + k * k
    xi_grid = RadialGrid(grid.xi_min * root_nu, grid.xi_max * root_nu, grid.n_points)
    seed = None if near is None else (near - shift) / nu
    beta = fd_eigensolve_free(eff_abs, 2.0 * m / root_nu, xi_grid, index, seed)
    return nu * beta + shift


class TestFdEigensolver:
    def test_half_integer_momentum_match(self):
        # nu = m^2(0.5 + 3/2) = 2, analytic E^2 = 2*2*(0.5+2) + 1 = 11
        ground = fd_e2(1.0, 2.0, 0.5, 1.0, RadialGrid(1e-3, 10.0, 4000))
        assert abs(ground - 11.0) / 11.0 < 1e-3

    def test_integer_momentum_match(self):
        # nu = 2.5, analytic E^2 = 2*2.5*3 = 15
        ground = fd_e2(1.0, 2.5, 1.0, 0.0, RadialGrid(1e-3, 10.0, 4000))
        assert abs(ground - 15.0) / 15.0 < 1e-4

    def test_detects_slope_momentum_mismatch(self):
        # nu = 1.5 is quantized for |eff| = 0, not 1; none of the lowest six levels is near 6
        grid = RadialGrid(1e-3, 10.0 * math.sqrt(2.0 / 1.5), 4000)
        levels = [fd_e2(1.0, 1.5, 1.0, 0.0, grid, index=i) for i in range(6)]
        assert min(abs(e - 6.0) / 6.0 for e in levels) > 0.05

    def test_second_order_convergence(self):
        # |eff| = 2, above the fully factored momentum range; halving h must
        # shrink the eigenvalue error by ~4x
        e2 = 2.0 * 3.5 * 4.0
        errs = []
        for n_points in (4000, 7999):
            ground = fd_e2(1.0, 3.5, 2.0, 0.0, RadialGrid(1e-3, 10.0, n_points))
            errs.append(abs(ground - e2) / e2)
        assert 3.5 < errs[0] / errs[1] < 4.5

    @pytest.mark.parametrize("eff", [40.0, 150.0])
    def test_large_momentum_stays_finite_and_accurate(self, eff):
        # A weight rho^(2s+1) at this |eff| underflows, or varies too fast
        # across one cell for the midpoint flux; the matched ground E^2 must
        # stay finite and close on the state's grid.
        nu = nu_ground_free(1.0, eff)
        e2 = energy_ground_free(1.0, eff, 0.0)[0] ** 2
        grid = RadialGrid(1e-3, 10.0 * math.sqrt((1.0 + eff) / nu), 4000)
        ground = fd_e2(1.0, nu, eff, 0.0, grid)
        assert math.isfinite(ground)
        assert abs(ground - e2) / e2 < 1e-3

    def test_levels_ascend_with_index(self):
        grid = RadialGrid(1e-3, 10.0, 1500)
        levels = [fd_e2(1.0, 2.5, 1.0, 0.0, grid, index=i) for i in range(4)]
        assert levels == sorted(set(levels))

    def test_default_grid_scales_with_state(self, monkeypatch):
        # cli._fd_match solves each state on N = 40 (n + 1) and 2N - 1 points from
        # xi = sqrt(nu) rho = 1e-3 to the state's extent, so the grid is the same
        # in xi at every m.
        # The grid comes by keyword, where a tracer that wraps the oracle reads it.
        grids = []

        def recorded(eff_abs, alpha, *, grid, **kwargs):
            grids.append(grid)
            return fd_eigensolve_free(eff_abs, alpha, grid=grid, **kwargs)

        monkeypatch.setattr(oracle, "fd_eigensolve_free", recorded)
        for n, l, m in [(1, 0, 1.0), (3, 2, 1e3), (8, 40, 1.0)]:
            pt = solve_general_n(QuantumNumbers(n, l, 0.7 * m), m, chi=0.2 / m)[0]
            grids.clear()
            cli._fd_match(pt, m, 0)
            coarse = 40 * (n + 1)
            assert sorted(g.n_points for g in grids) == [coarse, 2 * coarse - 1]
            for grid in grids:
                assert grid.xi_min == pytest.approx(1e-3, rel=1e-12)
                want = 10.0 * max(1.0, math.sqrt(n + pt.eff_abs))
                assert grid.xi_max == pytest.approx(want, rel=1e-12)


def solved_states():
    """(root index, state) of free (flux 0) and AB (flux 0.3) cells up to n = 16."""
    for n, l, k, t in product((1, 16), range(4), (0.0, 0.7), (0.0, 0.3)):
        yield from enumerate(solve_general_n(QuantumNumbers(n, l, k), 1.0, chi=0.2, flux=t))


class TestLevelFinder:
    def test_seeded_levels_match_lapack(self, monkeypatch):
        # LAPACK's bisection on the very matrix the search passes over, at the same index.
        finder, reference = oracle.find_steps, []

        def checked(sturm, brackets, rtol, wanted):
            (index,) = wanted
            diag, _, off2 = sturm.args
            off = np.sqrt(off2[1:])
            lapack = eigvalsh_tridiagonal(diag, off, select="i", select_range=(index, index))
            reference.append(float(lapack[0]))
            return finder(sturm, brackets, rtol, wanted)

        monkeypatch.setattr(oracle, "find_steps", checked)
        errors = []
        for index, pt in solved_states():
            nu, k = pt.nu_solved, pt.qn.k
            grid = RadialGrid(1e-3, 10.0 * math.sqrt((pt.qn.n + pt.eff_abs) / nu), 4000)
            got = fd_e2(1.0, nu, pt.eff_abs, k, grid, index, near=pt.energies[0] ** 2)
            want = nu * reference[-1] + 1.0 + k * k
            errors.append(abs(got - want) / want)
        assert len(errors) >= 100
        assert max(errors) <= 1e-10

    def test_bad_seed_finds_the_same_level(self):
        # The seed only picks where the search starts; the count proves the index.
        pts = solve_general_n(QuantumNumbers(5, 1, 0.7), 1.0, chi=0.2)
        assert len(pts) == 3
        for index, pt in enumerate(pts):
            nu = pt.nu_solved
            grid = RadialGrid(1e-3, 10.0 * math.sqrt((5 + pt.eff_abs) / nu), 4000)
            level = fd_e2(1.0, nu, pt.eff_abs, 0.7, grid, index)
            neighbour = fd_e2(1.0, nu, pt.eff_abs, 0.7, grid, index + 1)
            e2 = pt.energies[0] ** 2
            for near in (neighbour, 1.01 * e2, -e2):
                got = fd_e2(1.0, nu, pt.eff_abs, 0.7, grid, index, near=near)
                assert got == pytest.approx(level, rel=1e-10)

    def test_rejects_index_outside_matrix(self):
        grid = RadialGrid(1e-3, 10.0, 100)
        for index in (-1, 99):
            with pytest.raises(ValueError, match="level index"):
                fd_e2(1.0, 2.5, 1.0, 0.0, grid, index)

    def test_rejects_a_non_integer_index(self):
        # Index 1.5 names no level; the search must not settle on level 1.
        with pytest.raises(ValueError, match="level index 1.5 outside"):
            fd_eigensolve_free(0.0, 2.0, RadialGrid(0.01, 8.0, 200), index=1.5)
