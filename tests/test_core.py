import math

import numpy as np
import pytest

from dislospec import (
    HeunParams,
    MassProfile,
    NonPositiveSlope,
    QuantumNumbers,
    coulomb_eta,
    effective_angular_momentum,
    heun_params,
)


class TestTypes:
    def test_mass_profile_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            MassProfile(m=0.0, nu=1.0)
        with pytest.raises(ValueError):
            MassProfile(m=-1.0, nu=1.0)

    def test_mass_profile_holds_nonconfining_slope_until_used(self):
        # nu <= 0 is representable; it is rejected only where xi would be formed
        mp = MassProfile(m=1.0, nu=-2.0)
        with pytest.raises(NonPositiveSlope):
            mp.require_confining()

    def test_quantum_numbers_validation(self):
        with pytest.raises(ValueError):
            QuantumNumbers(n=0, l=0, k=0.0)
        with pytest.raises(ValueError):
            QuantumNumbers(n=1, l=0.5, k=0.0)

    def test_heun_params_validation(self):
        with pytest.raises(ValueError):
            HeunParams(nu_abs=-0.1, alpha=1.0, beta=0.0, mu=0.0)
        with pytest.raises(ValueError):
            HeunParams(nu_abs=0.0, alpha=-1.0, beta=0.0, mu=0.0)


class TestEffectiveAngularMomentum:
    def test_exact_cancellation(self):
        assert effective_angular_momentum(1, 2.0, 0.5, 0.0) == 0.0

    def test_all_zero(self):
        assert effective_angular_momentum(0, 0.0, 0.0, 0.0) == 0.0

    def test_flux_shift(self):
        assert effective_angular_momentum(0, 1.0, 0.5, 0.25) == -0.25

    def test_one_flux_quantum_equals_one_angular_step(self):
        rng = np.random.default_rng(7)
        chi = 0.37
        for _ in range(50):
            l = int(rng.integers(-5, 6))
            k = float(rng.uniform(-2, 2))
            t = float(rng.uniform(-1, 1))
            a = effective_angular_momentum(l + 1, k, chi, t - 1)
            b = effective_angular_momentum(l, k, chi, t)
            assert a == pytest.approx(b, abs=1e-12)


class TestCoulombEta:
    def test_zero(self):
        assert coulomb_eta(0.0, 0.0) == 0.0

    def test_pythagorean(self):
        assert coulomb_eta(3.0, 4.0) == 5.0

    def test_fractional(self):
        assert coulomb_eta(-0.5, 0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_reduces_to_abs_without_coupling(self):
        for x in np.linspace(-3, 3, 31):
            assert coulomb_eta(float(x), 0.0) == abs(float(x))


class TestHeunParams:
    def test_unit_substitution(self):
        p = heun_params(MassProfile(1.0, 1.0), E=0.0, k=0.0, b=0.0, eff_abs=0.0)
        assert (p.alpha, p.beta, p.mu) == (2.0, -1.0, 0.0)

    def test_direct_evaluation(self):
        p = heun_params(MassProfile(1.0, 4.0), E=3.0, k=0.0, b=0.0, eff_abs=0.0)
        assert (p.alpha, p.beta, p.mu) == (1.0, 2.0, 0.0)

    def test_coulomb_scale(self):
        p = heun_params(MassProfile(1.0, 1.0), E=2.0, k=0.0, b=0.5, eff_abs=0.0)
        assert p.mu == 2.0

    def test_free_case_always_has_zero_mu(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = heun_params(
                MassProfile(float(rng.uniform(0.2, 3)), float(rng.uniform(0.1, 5))),
                E=float(rng.uniform(-4, 4)),
                k=float(rng.uniform(-2, 2)),
                b=0.0,
                eff_abs=float(rng.uniform(0, 3)),
            )
            assert p.mu == 0.0

    def test_rejects_nonpositive_slope(self):
        for nu in (0.0, -1.5):
            with pytest.raises(NonPositiveSlope):
                heun_params(MassProfile(1.0, nu), E=1.0, k=0.0, b=0.0, eff_abs=0.0)
