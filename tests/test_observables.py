import math

import numpy as np
import pytest

from dislospec import (
    UndefinedAtZeroFlux,
    effective_angular_momentum,
    energy_ground_free,
    persistent_current_ground,
    persistent_current_numeric,
)
STEP = 1e-5


def ground_energy_fn(l, k, m=1.0, chi=0.0, branch=1):
    """Positive- or negative-energy lowest state as a flux ratio -> energy map."""
    def energy_at(t):
        eff = effective_angular_momentum(l, k, chi, t)
        pair = energy_ground_free(m, eff, k)
        return pair[0] if branch > 0 else pair[1]

    return energy_at


def current_numeric(fn, t):
    """I = -(q/2 pi) dE/dt at q = 1, from the central difference in t."""
    return persistent_current_numeric(fn, t, STEP) / (2.0 * math.pi)


class TestClosedForm:
    def test_frozen_value(self):
        # m=1, k=0, sigma=0.5, q=1, positive branch:
        # -(1/4pi) * 9 / sqrt(4 * 2.5) = -9 / (4 pi sqrt(10))
        got = persistent_current_ground(1.0, 0.0, 0.5, 1.0, 1)
        assert got == pytest.approx(-0.22648145447019166, rel=1e-15)
        assert got == pytest.approx(-9.0 / (4.0 * math.pi * math.sqrt(10.0)), rel=1e-15)

    def test_odd_in_sigma(self):
        for sigma in (0.1, 0.5, 1.3):
            up = persistent_current_ground(1.0, 1.0, sigma, 1.0, 1)
            down = persistent_current_ground(1.0, 1.0, -sigma, 1.0, 1)
            assert up == -down
            assert up < 0.0

    def test_flips_with_branch(self):
        plus = persistent_current_ground(1.0, 0.0, 0.7, 1.0, 1)
        minus = persistent_current_ground(1.0, 0.0, 0.7, 1.0, -1)
        assert plus == -minus

    def test_scales_with_charge(self):
        one = persistent_current_ground(1.0, 0.0, 0.5, 1.0, 1)
        three = persistent_current_ground(1.0, 0.0, 0.5, 3.0, 1)
        assert three == pytest.approx(3.0 * one, rel=1e-15)

    def test_undefined_on_kink(self):
        with pytest.raises(UndefinedAtZeroFlux):
            persistent_current_ground(1.0, 0.0, 0.0, 1.0, 1)
        with pytest.raises(UndefinedAtZeroFlux):
            persistent_current_ground(1.0, 0.0, 1e-15, 1.0, 1)

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            persistent_current_ground(1.0, 0.0, 0.5, 1.0, 0)


class TestNumericDerivative:
    def test_constant_spectrum(self):
        assert persistent_current_numeric(lambda t: 4.2, 0.3, STEP) == 0.0

    def test_matches_closed_form(self):
        # sigma = 0.5 at half a flux quantum for l = 0
        fn = ground_energy_fn(l=0, k=0.0)
        got = current_numeric(fn, 0.5)
        want = persistent_current_ground(1.0, 0.0, 0.5, 1.0, 1)
        assert got == pytest.approx(want, rel=1e-8)

    def test_sweep_of_effective_momenta(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            sigma = float(rng.uniform(-2.0, 2.0))
            if abs(sigma) <= 10.0 * 1e-5:
                continue
            l = int(rng.integers(-2, 3))
            k = float(rng.choice([0.0, 1.0]))
            branch = int(rng.choice([1, -1]))
            fn = ground_energy_fn(l=l, k=k, branch=branch)
            got = current_numeric(fn, sigma - l)
            want = persistent_current_ground(1.0, k, sigma, 1.0, branch)
            assert got == pytest.approx(want, rel=1e-8)

    def test_smooth_point_near_kink_edge(self):
        # |sigma| = 10 steps away from the kink: stencil stays one-sided
        fn = ground_energy_fn(l=0, k=0.0)
        sigma = 10.0 * 1e-5
        got = current_numeric(fn, sigma)
        want = persistent_current_ground(1.0, 0.0, sigma, 1.0, 1)
        assert got == pytest.approx(want, rel=1e-6)

    def test_period_shift_matches_neighbor_state(self):
        # one flux quantum on state l equals state l+1 at the base flux
        for l in (-1, 0, 2):
            shifted = persistent_current_numeric(ground_energy_fn(l=l, k=1.0), 1.3, STEP)
            neighbor = persistent_current_numeric(ground_energy_fn(l=l + 1, k=1.0), 0.3, STEP)
            assert shifted == pytest.approx(neighbor, rel=1e-10)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            persistent_current_numeric(lambda t: 1.0, 0.0, 0.0)
