import math

import numpy as np
import pytest

from dislospec import (
    Couplings,
    DefectGeometry,
    HeunParams,
    MassProfile,
    NonPositiveSlope,
    QuantumNumbers,
    RadialGrid,
    RadialWavefunction,
    SeriesCoefficients,
    build_coefficients,
    default_fd_grid,
    energy_ground_free,
    fd_eigensolve_free,
    heun_params,
    normalization,
    nu_ground_free,
    ode_residual,
    solve_general_n,
)

FLAT = DefectGeometry(chi=0.0)
FREE = Couplings()


def ground_state():
    pt = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, FLAT, FREE)[0]
    params = heun_params(MassProfile(1.0, pt.nu_solved), pt.energies[0], 0.0, 0.0, 0.0)
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

    def test_spacing_and_points(self):
        grid = RadialGrid(1.0, 2.0, 11)
        assert grid.spacing == pytest.approx(0.1, rel=1e-15)
        xs = grid.points()
        assert xs.shape == (11,)
        assert xs[0] == 1.0 and xs[-1] == 2.0
        assert np.allclose(np.diff(xs), 0.1)


class TestOdeResidual:
    def test_ground_state_satisfies_equation(self):
        pt, params = ground_state()
        grid = RadialGrid(0.01, 8.0, 2000)
        assert ode_residual(pt.wavefunction, params, grid) < 1e-10

    def test_all_third_level_roots(self):
        grid = RadialGrid(0.01, 8.0 * math.sqrt(3.0), 2000)
        for pt in solve_general_n(QuantumNumbers(3, 0, 0.0), 1.0, FLAT, FREE):
            params = heun_params(
                MassProfile(1.0, pt.nu_solved), pt.energies[0], 0.0, 0.0, 0.0
            )
            assert ode_residual(pt.wavefunction, params, grid) < 1e-8

    def test_coulomb_branches_satisfy_equation(self):
        grid = RadialGrid(0.01, 8.0, 2000)
        for pt in solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, FLAT, Couplings(b=0.1)):
            params = heun_params(
                MassProfile(1.0, pt.nu_solved), pt.energies[0], 0.0, 0.1, pt.eff_abs
            )
            assert ode_residual(pt.wavefunction, params, grid) < 1e-8

    def test_detuned_slope_is_detected(self):
        # rebuild the degree-1 polynomial from a 1% detuned slope; the
        # residual must rise far above the quantized-solution floor
        pt, _ = ground_state()
        nu = pt.nu_solved * 1.01
        params = heun_params(MassProfile(1.0, nu), pt.energies[0], 0.0, 0.0, 0.0)
        coeffs = build_coefficients(params, n_max=1)
        wf = RadialWavefunction(coeffs, params.alpha, 0.0, 1)
        grid = RadialGrid(0.01, 8.0, 2000)
        assert ode_residual(wf, params, grid) > 1e-4

    def test_invariant_under_amplitude_rescaling(self):
        pt, _ = ground_state()
        nu = pt.nu_solved * 1.01
        params = heun_params(MassProfile(1.0, nu), pt.energies[0], 0.0, 0.0, 0.0)
        coeffs = build_coefficients(params, n_max=1)
        scaled = SeriesCoefficients(
            coeffs=coeffs.coeffs * 1e6, params=coeffs.params, lam=coeffs.lam, tau=coeffs.tau
        )
        grid = RadialGrid(0.01, 8.0, 2000)
        base = ode_residual(RadialWavefunction(coeffs, params.alpha, 0.0, 1), params, grid)
        big = ode_residual(RadialWavefunction(scaled, params.alpha, 0.0, 1), params, grid)
        assert big == pytest.approx(base, rel=1e-10)

    def test_zero_wavefunction_degenerate_path(self):
        pt, params = ground_state()
        zero = SeriesCoefficients(
            coeffs=np.zeros(2),
            params=params,
            lam=pt.wavefunction.coefficients.lam,
            tau=pt.wavefunction.coefficients.tau,
        )
        wf = RadialWavefunction(zero, params.alpha, 0.0, 1)
        assert ode_residual(wf, params, RadialGrid(0.01, 8.0, 100)) == 0.0


class TestFdEigensolver:
    def test_half_integer_momentum_match(self):
        # nu = m^2(0.5 + 3/2) = 2, analytic E^2 = 2*2*(0.5+2) + 1 = 11
        eigs = fd_eigensolve_free(
            MassProfile(1.0, 2.0), 0.5, 1.0, RadialGrid(1e-3, 10.0, 4000)
        )
        nearest = min(eigs, key=lambda x: abs(x - 11.0))
        assert abs(nearest - 11.0) / 11.0 < 1e-3

    def test_integer_momentum_match(self):
        # nu = 2.5, analytic E^2 = 2*2.5*3 = 15
        eigs = fd_eigensolve_free(
            MassProfile(1.0, 2.5), 1.0, 0.0, RadialGrid(1e-3, 10.0, 4000)
        )
        nearest = min(eigs, key=lambda x: abs(x - 15.0))
        assert abs(nearest - 15.0) / 15.0 < 1e-4

    def test_detects_slope_momentum_mismatch(self):
        # nu = 1.5 is quantized for |eff| = 0, not 1; no eigenvalue near 6
        mass = MassProfile(1.0, 1.5)
        eigs = fd_eigensolve_free(mass, 1.0, 0.0, default_fd_grid(mass, 1, 1.0))
        assert min(abs(e - 6.0) / 6.0 for e in eigs) > 0.05

    def test_second_order_convergence(self):
        # |eff| = 2, above the fully factored momentum range; halving h must
        # shrink the eigenvalue error by ~4x
        mass = MassProfile(1.0, 3.5)
        e2 = 2.0 * 3.5 * 4.0
        errs = []
        for n_points in (4000, 7999):
            eigs = fd_eigensolve_free(mass, 2.0, 0.0, RadialGrid(1e-3, 10.0, n_points))
            nearest = min(eigs, key=lambda x: abs(x - e2))
            errs.append(abs(nearest - e2) / e2)
        assert 3.5 < errs[0] / errs[1] < 4.5

    @pytest.mark.parametrize("eff", [40.0, 150.0])
    def test_large_momentum_stays_finite_and_accurate(self, eff):
        # A weight rho^(2s+1) at this |eff| underflows, or varies too fast
        # across one cell for the midpoint flux; the matched ground E^2 must
        # stay finite and close on the default grid.
        mass = MassProfile(1.0, nu_ground_free(1.0, eff))
        e2 = energy_ground_free(1.0, eff, 0.0)[0] ** 2
        eigs = fd_eigensolve_free(mass, eff, 0.0, default_fd_grid(mass, 1, eff))
        nearest = min(eigs, key=lambda x: abs(x - e2))
        assert math.isfinite(nearest)
        assert abs(nearest - e2) / e2 < 1e-3

    def test_returns_sorted_requested_count(self):
        eigs = fd_eigensolve_free(
            MassProfile(1.0, 2.5), 1.0, 0.0, RadialGrid(1e-3, 10.0, 1500), n_eigs=4
        )
        assert len(eigs) == 4
        assert eigs == sorted(eigs)

    def test_default_grid_scales_with_state(self):
        mass = MassProfile(1.0, 2.5)
        grid = default_fd_grid(mass, 1, 1.0)
        assert grid.xi_min == 1e-3
        assert grid.xi_max == pytest.approx(10.0 / math.sqrt(2.5) * math.sqrt(2.0), rel=1e-12)
        assert grid.n_points == 4000

    def test_requires_confining_slope(self):
        with pytest.raises(NonPositiveSlope):
            default_fd_grid(MassProfile(1.0, 0.0), 1, 0.0)
        with pytest.raises(NonPositiveSlope):
            fd_eigensolve_free(
                MassProfile(1.0, -1.0), 0.0, 0.0, RadialGrid(1e-3, 10.0, 100)
            )


class TestNormalization:
    def test_gaussian_integral(self):
        # alpha = 0, beta = 2, s = 0 terminates at degree 0: R = exp(-xi^2/2),
        # so the integral is the half Gaussian moment 1/2
        params = HeunParams(nu_abs=0.0, alpha=0.0, beta=2.0, mu=0.0)
        wf = RadialWavefunction(build_coefficients(params, n_max=4), 0.0, 0.0)
        got = normalization(wf, RadialGrid(1e-3, 10.0, 4000))
        assert got == pytest.approx(0.5, abs=5e-5)

    def test_stable_under_domain_extension(self):
        pt, _ = ground_state()
        n8 = normalization(pt.wavefunction, RadialGrid(0.01, 8.0, 4000))
        n12 = normalization(pt.wavefunction, RadialGrid(0.01, 12.0, 6000))
        assert n8 > 0.0
        assert abs(n12 - n8) < 1e-8

    def test_zero_wavefunction(self):
        pt, params = ground_state()
        zero = SeriesCoefficients(
            coeffs=np.zeros(2),
            params=params,
            lam=pt.wavefunction.coefficients.lam,
            tau=pt.wavefunction.coefficients.tau,
        )
        wf = RadialWavefunction(zero, params.alpha, 0.0, 1)
        assert normalization(wf, RadialGrid(0.01, 8.0, 500)) == 0.0
