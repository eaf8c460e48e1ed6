import math

import numpy as np
import pytest

from dislospec import (
    HeunParams,
    QuantumNumbers,
    build_coefficients,
    solve_general_n,
)
from dislospec.heun import lambda_bar, tau_bar
from test_acceptance import params_at_energy, solved_population


def params_for(alpha=1.0, beta=0.0, mu=0.0, nu_abs=0.0):
    return HeunParams(nu_abs=nu_abs, alpha=alpha, beta=beta, mu=mu)


def ground_free_params(m=1.0, gamma_abs=0.0, k=0.0):
    """Exact lowest free state: nu = m^2(|g|+3/2), E^2 = 2 nu (|g|+2) + k^2."""
    nu = m * m * (gamma_abs + 1.5)
    e = math.sqrt(2.0 * nu * (gamma_abs + 2.0) + k * k)
    return params_at_energy(m, nu, e, k, 0.0, gamma_abs)


class TestRecurrence:
    def test_first_coefficient_free(self):
        # a_1 = alpha/2 when mu = 0
        for alpha in (0.5, 1.0, 2.7):
            for s in (0.0, 0.5, 2.0):
                c = build_coefficients(params_for(alpha=alpha, nu_abs=s), n_max=2)
                assert c[0] == 1.0
                assert c[1] == pytest.approx(alpha / 2.0, rel=1e-15)

    def test_second_coefficient_matches_expansion(self):
        # a_2 = alpha^2 (2s+3)/[8(2+2s)] - lam/[2(2+2s)]
        for alpha, beta, s in [(1.0, 3.0, 0.0), (2.0, -1.0, 1.5), (0.3, 7.0, 0.25)]:
            p = params_for(alpha=alpha, beta=beta, nu_abs=s)
            lam = beta + alpha**2 / 4.0 - 2.0 - 2.0 * s
            want = alpha**2 * (2 * s + 3) / (8 * (2 + 2 * s)) - lam / (2 * (2 + 2 * s))
            c = build_coefficients(p, n_max=2)
            assert c[2] == pytest.approx(want, rel=1e-14)

    def test_zero_alpha_zeroes_odd_seed(self):
        p = params_for(alpha=0.0, beta=5.0, nu_abs=1.0)
        c = build_coefficients(p, n_max=2)
        lam = 5.0 - 2.0 - 2.0
        assert c[1] == 0.0
        assert c[2] == pytest.approx(-lam / (2 * (2 + 2.0)), rel=1e-15)

    def test_coulomb_seed_uses_tau(self):
        p = params_for(alpha=1.0, beta=2.0, mu=0.7, nu_abs=0.5)
        c = build_coefficients(p, n_max=1)
        tau = 0.5 * 1.0 * 2.0 - 0.7
        assert tau_bar(p) == tau
        assert c[1] == pytest.approx(tau / 2.0, rel=1e-15)

    def test_self_consistency_resubstitution(self):
        # computed coefficients must satisfy the three-term relation they came from
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = params_for(
                alpha=float(rng.uniform(0.1, 3)),
                beta=float(rng.uniform(-2, 8)),
                mu=float(rng.uniform(-1, 1)),
                nu_abs=float(rng.uniform(0, 2.5)),
            )
            c = build_coefficients(p, n_max=30)
            a, s, lam, tau = c, p.nu_abs, lambda_bar(p), tau_bar(p)
            for k in range(29):
                denom = (k + 2.0) * (k + 2.0 + 2.0 * s)
                rhs = ((p.alpha * (k + 1) + tau) * a[k + 1] - (lam - 2 * k) * a[k]) / denom
                scale = max(abs(a[k + 2]), abs(a[k + 1]), abs(a[k]), 1e-30)
                assert abs(a[k + 2] - rhs) / scale < 1e-13

    def test_mu_zero_reduction_matches_free_recurrence(self):
        # independent transcription of the free-case relation, coefficient for coefficient
        p = params_for(alpha=1.7, beta=4.2, nu_abs=0.75)
        c = build_coefficients(p, n_max=20)
        g = p.nu_abs
        lam = p.beta + p.alpha**2 / 4 - 2 - 2 * g
        a = [1.0, p.alpha / 2.0]
        for k in range(19):
            denom = (k + 2.0) * (k + 2.0 + 2.0 * g)
            a.append(
                ((p.alpha * (k + 1) + 0.5 * p.alpha * (2 * g + 1)) * a[k + 1] - (lam - 2 * k) * a[k])
                / denom
            )
        np.testing.assert_allclose(c, a, rtol=1e-14, atol=0)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            build_coefficients(params_for(), n_max=0)


class TestEvaluation:
    def test_ground_free_series_is_linear(self):
        # lowest-state series is 1 + (alpha/2) xi with alpha^2 = 8/(2|g|+3)
        for g in (0.0, 0.5, 2.0):
            p = ground_free_params(gamma_abs=g)
            assert p.alpha**2 == pytest.approx(8.0 / (2 * g + 3), rel=1e-14)
            c = build_coefficients(p, n_max=2)
            assert c[:2] == pytest.approx((1.0, 0.5 * p.alpha), rel=1e-12)
            assert abs(c[2]) < 1e-12


def truncation_coefficient(params, n):
    """a_{n+1}, which must vanish for a degree-n polynomial."""
    return build_coefficients(params, n_max=n + 1)[n + 1]


class TestTruncationResidual:
    def test_vanishes_at_quantized_slope(self):
        for g in (0.0, 0.5, 1.0, 2.5):
            p = ground_free_params(gamma_abs=g)
            assert abs(lambda_bar(p) - 2.0) < 1e-12  # lam = 2n at n = 1
            assert abs(truncation_coefficient(p, 1)) < 1e-14

    def test_nonzero_at_doubled_slope(self):
        m, g = 1.0, 0.5
        nu = 2.0 * m * m * (g + 1.5)
        e = math.sqrt(2.0 * nu * (1 + g + 1.0))
        p = params_at_energy(m, nu, e, 0.0, 0.0, g)
        assert abs(lambda_bar(p) - 2.0) < 1e-12
        assert abs(truncation_coefficient(p, 1)) > 0.1

    def test_coulomb_fixed_point_vanishes(self):
        # closed-form branch energy, slope from its quantization expression
        from dislospec import energy_ground_coulomb, nu_ground_coulomb

        m, b, eta, k = 1.0, 0.1, 0.1, 0.0
        for e in energy_ground_coulomb(m, b, eta, k):
            nu = nu_ground_coulomb(m, b, eta, e)
            p = params_at_energy(m, nu, e, k, b, eta)
            assert abs(lambda_bar(p) - 2.0) < 1e-12
            assert abs(truncation_coefficient(p, 1)) < 1e-13

    def test_termination_cascade(self):
        # once lam = 2n and a_{n+1} = 0 hold, the entire tail collapses
        p = ground_free_params(gamma_abs=1.0)
        c = build_coefficients(p, n_max=64)
        head = np.max(np.abs(c[:2]))
        assert np.max(np.abs(c[2:])) < 1e-10 * head


def one_shot_series(params, n_max):
    """a_0..a_{n_max} in a single pass of the recurrence."""
    lam, tau, s = lambda_bar(params), tau_bar(params), params.nu_abs
    a = [1.0, tau / (1.0 + 2.0 * s)]
    for k in range(n_max - 1):
        denom = (k + 2.0) * (k + 2.0 + 2.0 * s)
        a.append(((params.alpha * (k + 1.0) + tau) * a[k + 1] - (lam - 2.0 * k) * a[k]) / denom)
    return tuple(a)


def test_state_series_is_the_one_shot_recurrence():
    # A solved state's a_0..a_n are the terms of the single pass run on the
    # parameters its printed slope and energy rebuild, and its trunc_rel reads
    # the a_{n+1} of the same pass; the series through order max(64, n + 1),
    # which verify's truncation cascade builds, is bitwise that pass run further.
    def population():
        states = solved_population()  # (m, b, state)
        for n in (30, 60):
            qn = QuantumNumbers(n, 1, 0.7)
            states += [(1.0, 0.0, pt) for pt in solve_general_n(qn, 1.0, chi=0.2)]
        return states

    # A state is a plain value: comparing, hashing or printing it reads what
    # it holds and grows nothing.
    states, fresh = population(), population()
    points = [pt for _, _, pt in states]
    assert any(pt.qn.n == 60 for pt in points)
    assert points == [pt for _, _, pt in fresh]
    assert [hash(pt) for pt in points] == [hash(pt) for _, _, pt in fresh]
    assert [repr(pt) for pt in points] == [repr(pt) for _, _, pt in fresh]
    for m, b, pt in states:
        params, n = pt.params(m, b), pt.qn.n
        series = one_shot_series(params, n + 1)
        assert pt.coeffs == series[: n + 1]
        assert pt.trunc_rel == abs(series[n + 1]) / max(map(abs, series[: n + 1]))
        n_max = max(64, n + 1)
        assert build_coefficients(params, n_max) == one_shot_series(params, n_max)


class TestDerivedQuantities:
    def test_lambda_and_tau_definitions(self):
        p = params_for(alpha=1.2, beta=3.4, mu=0.6, nu_abs=0.8)
        assert lambda_bar(p) == pytest.approx(3.4 + 1.2**2 / 4 - 2 - 1.6, rel=1e-15)
        assert tau_bar(p) == pytest.approx(0.6 * 2.6 - 0.6, rel=1e-15)
