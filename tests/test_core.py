import math
import sys

import numpy as np
import pytest

from dislospec import (
    HeunParams,
    QuantumNumbers,
    coulomb_eta,
    effective_angular_momentum,
)


class TestTypes:
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
        # Every b = 0 state takes its s from coulomb_eta, so it must be |x| bit for
        # bit: at the signed zeros, subnormals, the smallest normal, the largest
        # magnitudes, and random magnitudes from 1e-320 to 1e308.
        rng = np.random.default_rng(45)
        edges = [0.0, 5e-324, 2.2250738585072014e-308, 1e308, sys.float_info.max]
        randoms = 10.0 ** rng.uniform(-320.0, 308.0, 2000) * rng.choice([-1.0, 1.0], 2000)
        xs = [*np.linspace(-3, 3, 31), *edges, *(-x for x in edges), *randoms]
        for x in map(float, xs):
            for b in (0.0, -0.0):
                got = coulomb_eta(x, b)
                assert got == abs(x) and math.copysign(1.0, got) == 1.0, (x, b)

