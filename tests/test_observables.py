import math

import numpy as np
import pytest

from dislospec import (
    Couplings,
    DefectGeometry,
    UndefinedAtZeroFlux,
    effective_angular_momentum,
    energy_ground_free,
    persistent_current_ground,
    persistent_current_numeric,
)
from dislospec.core import TWO_PI

STEP = TWO_PI * 1e-5


def ground_energy_fn(l, k, m=1.0, chi=0.0, q=1.0, branch=1):
    """Positive- or negative-energy lowest state as a flux -> energy map."""
    geom = DefectGeometry(chi=chi)

    def energy_at(phi_B):
        eff = effective_angular_momentum(l, k, geom, Couplings(q=q, phi_B=phi_B))
        pair = energy_ground_free(m, eff, k)
        return pair[0] if branch > 0 else pair[1]

    return energy_at


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
        assert persistent_current_numeric(lambda phi: 4.2, 0.3, STEP) == 0.0

    def test_matches_closed_form(self):
        # sigma = 0.5 at phi = 0.5 flux quanta for l = 0
        fn = ground_energy_fn(l=0, k=0.0)
        got = persistent_current_numeric(fn, 0.5 * TWO_PI, STEP)
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
            phi = (sigma - l) * TWO_PI
            fn = ground_energy_fn(l=l, k=k, branch=branch)
            got = persistent_current_numeric(fn, phi, STEP)
            want = persistent_current_ground(1.0, k, sigma, 1.0, branch)
            assert got == pytest.approx(want, rel=1e-8)

    def test_smooth_point_near_kink_edge(self):
        # |sigma| = 10 steps away from the kink: stencil stays one-sided
        fn = ground_energy_fn(l=0, k=0.0)
        sigma = 10.0 * 1e-5
        got = persistent_current_numeric(fn, sigma * TWO_PI, STEP)
        want = persistent_current_ground(1.0, 0.0, sigma, 1.0, 1)
        assert got == pytest.approx(want, rel=1e-6)

    def test_period_shift_matches_neighbor_state(self):
        # one flux quantum on state l equals state l+1 at the base flux
        for l in (-1, 0, 2):
            phi = 0.3 * TWO_PI
            shifted = persistent_current_numeric(
                ground_energy_fn(l=l, k=1.0), phi + TWO_PI, STEP
            )
            neighbor = persistent_current_numeric(
                ground_energy_fn(l=l + 1, k=1.0), phi, STEP
            )
            assert shifted == pytest.approx(neighbor, rel=1e-10)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            persistent_current_numeric(lambda phi: 1.0, 0.0, 0.0)
