import contextlib
import math
import re
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.linalg import eig
from scipy.optimize import brentq

from dislospec import (
    FREE,
    DegenerateDenominator,
    NonPositiveSlope,
    NoRealSolution,
    NoRoots,
    QuantumNumbers,
    SpectrumPoint,
    build_coefficients,
    coulomb_eta,
    energy_from_lambda,
    energy_ground_coulomb,
    energy_ground_free,
    nu_ground_coulomb,
    nu_ground_free,
    solve_general_n,
)
from dislospec import quantization, sturm
from dislospec.heun import lambda_bar
from dislospec.quantization import (
    PROOF_WIDTH,
    _alpha_roots,
    _isolate,
)
from test_acceptance import params_at_energy


# ---------------------------------------------------------------------------
# independent oracles, written before the assertions that freeze their output
# ---------------------------------------------------------------------------

def truncation_polynomial(n, s):
    """Free-case a_{n+1} as a polynomial in alpha, built by running the
    recurrence over coefficient arrays (lam pinned to 2n, mu = 0)."""
    one = np.array([1.0])
    alpha = np.array([0.0, 1.0])
    lam = 2.0 * n
    tau = P.polymul(alpha, [0.5 * (2 * s + 1)])
    a = [one, P.polymul(tau, [1.0 / (1 + 2 * s)])]
    for k in range(n):
        denom = (k + 2.0) * (k + 2.0 + 2.0 * s)
        t1 = P.polymul(P.polyadd(P.polymul(alpha, [k + 1.0]), tau), a[k + 1])
        t2 = P.polymul([lam - 2.0 * k], a[k])
        a.append(P.polymul(P.polysub(t1, t2), [1.0 / denom]))
    return a[n + 1]


def free_nu_roots_oracle(n, s, m=1.0):
    """Positive-slope roots via companion-matrix eigenvalues, ascending nu."""
    c = truncation_polynomial(n, s)
    roots = np.roots(c[::-1])
    alphas = sorted(r.real for r in roots if abs(r.imag) < 1e-10 and r.real > 0)
    return sorted(4.0 * m * m / a**2 for a in alphas)


def coulomb_ground_oracle(m, b, eta, k):
    """Quadratic in E from eliminating nu between the energy relation (n=1)
    and the slope expression; returns real roots with positive back-slope."""
    c2 = 1.0 - 4.0 * b * b * (eta + 2.0) / (2.0 * eta + 1.0)
    c1 = 4.0 * m * b * (eta + 2.0) * (2.0 * eta + 2.0) / (2.0 * eta + 1.0)
    c0 = -(m * m * (eta + 2.0) * (2.0 * eta + 3.0) + k * k)
    out = []
    for r in np.roots([c2, c1, c0]):
        if abs(r.imag) < 1e-10 and nu_ground_coulomb(m, b, eta, r.real) > 0:
            out.append(r.real)
    return sorted(out)


def scan_residual(alpha, n, s, m, k, b, sign):
    """a_{n+1} at lam = 2n along one signed-energy branch, by the recurrence
    of the heun module docstring in plain floats."""
    nu = 4.0 * m * m / (alpha * alpha)
    mu = 2.0 * b * sign * math.sqrt(2.0 * nu * (n + s + 1.0) + k * k) / math.sqrt(nu)
    tau = 0.5 * alpha * (2.0 * s + 1.0) - mu
    a0, a1 = 1.0, tau / (1.0 + 2.0 * s)
    for j in range(n):
        denom = (j + 2.0) * (j + 2.0 + 2.0 * s)
        a0, a1 = a1, ((alpha * (j + 1.0) + tau) * a1 - (2.0 * n - 2.0 * j) * a0) / denom
    return a1


def scan_alpha_roots(f, lo=0.01, hi=50.0, step=0.01):
    """The bracket scan plus brentq polish that solve_general_n used before
    its eigen-solve, frozen as an oracle; ascending distinct roots."""
    roots = []
    x0, f0 = lo, f(lo)
    for i in range(1, int(math.ceil((hi - lo) / step)) + 1):
        x1 = min(lo + i * step, hi)
        f1 = f(x1)
        if f0 == 0.0:
            roots.append(x0)
        elif f0 * f1 < 0.0:
            roots.append(brentq(f, x0, x1, xtol=1e-15, rtol=8.9e-16))
        x0, f0 = x1, f1
    if f0 == 0.0:
        roots.append(x0)
    deduped = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > 1e-9 * max(1.0, abs(r)):
            deduped.append(r)
    return deduped


def qz_pencil_alphas(n, s, c, k):
    """Alpha roots of the pencil path at m = 1 (A = 2(n+s+1), B = k^2/4), from
    the generalized companion pencil solve_general_n handed to scipy's QZ
    before it linearized in the definite variable, frozen as an oracle.
    Each real w > 1 maps to alpha = r(w - 1/w)/2, which loses digits near
    w = 1, so brentq polishes it on the plain-float recurrence residual."""
    big_a, big_b = 2.0 * (n + s + 1.0), 0.25 * k * k
    j = np.arange(n, dtype=float)
    d = np.diag(np.arange(n + 1, dtype=float) + s + 0.5)
    t = np.diag((j + 1.0) * (j + 1.0 + 2.0 * s), 1) + np.diag(2.0 * (n - j), -1)
    r = math.sqrt(big_a / big_b)
    ca = c * math.sqrt(big_a)
    eye, zero = np.eye(n + 1), np.zeros((n + 1, n + 1))
    pencil_a = np.block([[zero, eye], [-(ca * eye + r * d), -2.0 * t]])
    pencil_b = np.block([[eye, zero], [zero, ca * eye - r * d]])

    def f(alpha):
        return scan_residual(alpha, n, s, 1.0, k, 0.5 * c, 1)

    roots = []
    for w in eig(pencil_a, pencil_b, right=False):
        if np.isfinite(w) and abs(w.imag) <= 1e-8 * abs(w) and w.real > 1.0:
            a = 0.5 * r * (w.real - 1.0 / w.real)
            lo, hi = a * (1.0 - 1e-8), a * (1.0 + 1e-8)
            roots.append(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16) if f(lo) * f(hi) < 0 else a)
    roots.sort()
    return [a for i, a in enumerate(roots) if i == 0 or a - roots[i - 1] > 1e-9 * max(1.0, a)]


def hand_point(n, s, nu, energy):
    """A state built by hand at k = 0: params reads only n, s, the slope and energies[0]."""
    qn = QuantumNumbers(n, 0, 0.0)
    return SpectrumPoint(qn, s, s, nu, (energy, -energy), (1.0,), FREE, None, 0.0)


class TestSpectrumPointParams:
    def test_unit_substitution(self):
        # m = nu = 1, n = 1, s = 0: alpha = 2, beta = 2(n+s+1) - alpha^2/4 = 3, E = 2
        p = hand_point(1, 0.0, 1.0, 2.0).params(1.0, 0.0)
        assert (p.nu_abs, p.alpha, p.beta, p.mu) == (0.0, 2.0, 3.0, 0.0)

    def test_direct_evaluation(self):
        # nu = 4: alpha = 1; n = 2, s = 0.5: beta = 7 - 1/4, which is (E^2 - m^2)/nu
        # at the state's E^2 = 2 nu (n + s + 1) = 28
        p = hand_point(2, 0.5, 4.0, math.sqrt(28.0)).params(1.0, 0.0)
        assert (p.nu_abs, p.alpha, p.beta, p.mu) == (0.5, 1.0, 6.75, 0.0)
        assert p.beta == (28.0 - 1.0) / 4.0

    def test_coulomb_scale(self):
        # mu = 2 b E / sqrt(nu)
        p = hand_point(1, 0.0, 1.0, 2.0).params(1.0, 0.5)
        assert (p.alpha, p.beta, p.mu) == (2.0, 3.0, 2.0)

    def test_free_case_always_has_zero_mu(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pt = hand_point(
                int(rng.integers(1, 6)),
                float(rng.uniform(0, 3)),
                float(rng.uniform(0.1, 5)),
                float(rng.uniform(-4, 4)),
            )
            assert pt.params(float(rng.uniform(0.2, 3)), 0.0).mu == 0.0


class TestEnergyFromLambda:
    def test_ground_case(self):
        assert energy_from_lambda(1.5, 1, 0.0, 0.0) == pytest.approx(
            (math.sqrt(6), -math.sqrt(6)), rel=1e-15
        )

    def test_half_integer_momentum(self):
        assert energy_from_lambda(2.0, 1, 0.5, 1.0) == pytest.approx(
            (math.sqrt(11), -math.sqrt(11)), rel=1e-15
        )

    def test_distinct_pair_same_energy(self):
        assert energy_from_lambda(1.0, 2, 0.0, 0.0)[0] == pytest.approx(
            math.sqrt(6), rel=1e-15
        )

    def test_rejects_nonpositive_slope(self):
        for nu in (0.0, -1.0):
            with pytest.raises(NonPositiveSlope):
                energy_from_lambda(nu, 1, 0.0, 0.0)


class TestGroundFreeClosedForms:
    def test_nu_values(self):
        assert nu_ground_free(1.0, 0.0) == 1.5
        assert nu_ground_free(1.0, -0.5) == 2.0
        assert nu_ground_free(2.0, 1.0) == 10.0

    def test_energy_values(self):
        assert energy_ground_free(1.0, 0.0, 0.0)[0] == pytest.approx(math.sqrt(6), rel=1e-15)
        assert energy_ground_free(1.0, -0.5, 1.0)[0] == pytest.approx(math.sqrt(11), rel=1e-15)
        assert energy_ground_free(1.0, 0.0, 1.0)[0] == pytest.approx(math.sqrt(7), rel=1e-15)

    def test_composition_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = float(rng.uniform(0.3, 3))
            eff = float(rng.uniform(-4, 4))
            k = float(rng.uniform(-2, 2))
            via_lambda = energy_from_lambda(nu_ground_free(m, eff), 1, abs(eff), k)
            closed = energy_ground_free(m, eff, k)
            assert via_lambda[0] == pytest.approx(closed[0], rel=1e-14)

    def test_even_in_momentum(self):
        assert energy_ground_free(1.0, 1.7, 0.3) == energy_ground_free(1.0, -1.7, 0.3)


class TestGroundCoulombClosedForms:
    def test_nu_reduces_to_free_at_zero_coupling(self):
        for e in (-2.0, 0.0, 3.0):
            assert nu_ground_coulomb(1.0, 0.0, 1.0, e) == 2.5

    def test_nu_direct_evaluation(self):
        got = nu_ground_coulomb(1.0, 0.1, 1.0, 2.0)
        assert got == pytest.approx(2.5 - 0.4 * (4.0 / 3.0) + 0.08 / 3.0, rel=1e-14)
        assert nu_ground_coulomb(1.0, 0.1, 1.0, 0.0) == 2.5

    def test_branches_match_quadratic_oracle(self):
        for m, b, gamma, k in [
            (1.0, 0.1, 0.0, 0.0),
            (1.0, -0.1, 0.0, 0.0),
            (1.0, 1.0, 0.0, 0.0),
            (2.0, 0.2, 1.0, 1.0),
        ]:
            eta = coulomb_eta(gamma, b)
            got = sorted(energy_ground_coulomb(m, b, eta, k))
            want = coulomb_ground_oracle(m, b, eta, k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_frozen_values(self):
        got = sorted(energy_ground_coulomb(1.0, 0.1, 0.1, 0.0))
        assert got == pytest.approx([-3.640663733231899, 1.9847497547372752], rel=1e-12)
        # strong coupling puts both branches at positive energy
        got = sorted(energy_ground_coulomb(1.0, 1.0, 1.0, 0.0))
        assert got == pytest.approx([1.213700352153109, 4.119632981180224], rel=1e-12)

    def test_fixed_point_loop(self):
        m, b, k = 1.0, 0.1, 0.0
        eta = coulomb_eta(0.0, b)
        for e in energy_ground_coulomb(m, b, eta, k):
            nu = nu_ground_coulomb(m, b, eta, e)
            assert nu > 0
            back = energy_from_lambda(nu, 1, eta, k)
            chosen = back[0] if e > 0 else back[1]
            assert chosen == pytest.approx(e, rel=1e-12)

    def test_zero_coupling_dispatches_to_free(self):
        assert energy_ground_coulomb(1.0, 0.0, 1.5, 0.5) == energy_ground_free(1.0, 1.5, 0.5)

    def test_small_coupling_limit(self):
        # branches approach the free pair linearly in b
        m, gamma, k = 1.0, 1.0, 0.0
        free_pair = sorted(energy_ground_free(m, gamma, k))
        errs = []
        bs = [10.0**-j for j in range(2, 7)]
        for b in bs:
            eta = coulomb_eta(gamma, b)
            got = sorted(energy_ground_coulomb(m, b, eta, k))
            errs.append(max(abs(g - f) for g, f in zip(got, free_pair)))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert all(5 < r < 20 for r in ratios)
        assert errs[-1] < 1e-5

    def test_negative_radicand_raises(self):
        with pytest.raises(NoRealSolution):
            energy_ground_coulomb(1.0, 1.0, 1.0, 10.0)

    def test_degenerate_denominator_raises(self):
        # 4 b^2 eta + 8 b^2 - 2 eta - 1 = 0 along eta = b (gamma = 0)
        b_star = brentq(lambda b: 4 * b**3 + 8 * b**2 - 2 * b - 1, 0.4, 0.5, xtol=1e-15)
        with pytest.raises(DegenerateDenominator):
            energy_ground_coulomb(1.0, b_star, b_star, 0.0)

    def test_radicand_sign_change_scan(self):
        # walk k upward at fixed strong coupling until the radicand flips
        m, b = 1.0, 1.0
        eta = coulomb_eta(1.0, b)
        good = energy_ground_coulomb(m, b, eta, 0.0)
        assert len(good) == 2
        with pytest.raises(NoRealSolution):
            energy_ground_coulomb(m, b, eta, 6.0)


# n = 1 Coulomb cells (b, l, k, chi): b from +-0.05 to +-3 in steps of 0.05, and
# +-b* where the closed form's denominator vanishes at l = k = 0 (eta = b).
B_STAR = 0.43870187285001877
N1_COULOMB_CELLS = list(
    product(
        [s * 0.05 * i for i in range(1, 61) for s in (1, -1)] + [B_STAR, -B_STAR],
        range(4),
        (0.0, 0.5, 1.0, 2.0, 3.0, 5.0),
        (0.0, 0.2),
    )
)
# c sqrt(B) = 3.1 lies within 2.6e-4 of d_1 = 3.1008, so the count cannot prove
# the pencil root at alpha = 59.59 (ROADMAP item 20).
N1_NEARLY_TANGENT = [(1.55, 0, 2.0, 0.2), (-1.55, 0, 2.0, 0.2)]


def assert_n1_coulomb_matches_closed_form(b, l, k, chi):
    """The solver has exactly the closed form's n = 1 energies, or none and NoRoots.
    Where the closed form's denominator d degenerates, its branches are the roots
    of d E^2 - 2P E + Q = 0 at d -> 0: the one finite root E = Q / (2P)."""
    eta = coulomb_eta(l - chi * k, b)
    try:
        want = sorted(energy_ground_coulomb(1.0, b, eta, k))
    except NoRealSolution:
        want = []
    except DegenerateDenominator:
        two_p = 4.0 * b * (eta + 2) * (2 * eta + 2)
        e = (2 * eta + 1) * ((eta + 2) * (2 * eta + 3) + k * k) / two_p
        want = [e] if nu_ground_coulomb(1.0, b, eta, e) > 0.0 else []
    qn = QuantumNumbers(1, l, k)
    if not want:
        with pytest.raises(NoRoots):
            solve_general_n(qn, 1.0, chi=chi, b=b)
        return
    got = sorted(e for p in solve_general_n(qn, 1.0, chi=chi, b=b) for e in p.energies)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10 * abs(w)


def test_n1_coulomb_solver_matches_closed_form():
    # 5854 cells in about 0.6 s: 4194 with states (14 of them where the closed form
    # degenerates) and 1660 without.
    for cell in N1_COULOMB_CELLS:
        if cell not in N1_NEARLY_TANGENT:
            assert_n1_coulomb_matches_closed_form(*cell)


@pytest.mark.xfail(strict=True, raises=NoRoots, reason="ROADMAP item 20: a nearly tangent root")
@pytest.mark.parametrize("cell", N1_NEARLY_TANGENT)
def test_n1_coulomb_nearly_tangent_root(cell):
    assert_n1_coulomb_matches_closed_form(*cell)


SCAN_CELLS = (
    [("free", n, l, k, 0.0, 0.0) for n in (1, 3, 5, 8) for l in (0, 2) for k in (0.0, 0.7)]
    + [("ab", n, l, k, 0.0, 0.3) for n in (2, 4, 8) for l in (-1, 1) for k in (0.0, 0.7)]
    + [
        ("coulomb", n, 0, k, b, 0.0)
        for n in (1, 2, 4, 8)
        for k in (0.0, 1e-3, 0.7)
        for b in (0.1, -0.1)
    ]
    # At k this small the w-pencil's roots crowd at w = 1; the solver must not use it.
    + [("coulomb", n, 0, 1e-8, b, 0.0) for n in (4, 8) for b in (0.1, -0.1)]
    # |c| sqrt(B) / d_0 >= 1 here, so the c > 0 branch takes the pencil path
    # and the c < 0 branch the count; n = 1 has no root on either branch.
    + [("coulomb", n, 0, 3.0, b, 0.0) for n in (1, 2, 5) for b in (1.5, -1.5)]
)


@pytest.mark.parametrize("scenario,n,l,k,b,t", SCAN_CELLS)
def test_eigen_solve_matches_frozen_scan(scenario, n, l, k, b, t):
    eff = l - 0.25 * k + t
    s = coulomb_eta(eff, b) if b else abs(eff)
    wants = {
        sign: sorted(
            4.0 / a**2
            for a in scan_alpha_roots(lambda a: scan_residual(a, n, s, 1.0, k, b, sign or 1))
        )
        for sign in ((1, -1) if b else (None,))
    }
    qn = QuantumNumbers(n, l, k)
    if not any(wants.values()):
        with pytest.raises(NoRoots):
            solve_general_n(qn, 1.0, chi=0.25, b=b, flux=t)
        return
    pts = solve_general_n(qn, 1.0, chi=0.25, b=b, flux=t)
    assert {p.scenario for p in pts} == {scenario}
    for sign, want in wants.items():
        got = [p.nu_solved for p in pts if p.branch == sign]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w


# At B = (d_j / c)^2 one diagonal entry of c sqrt(A) -+ r D vanishes: the
# second block of the old pencil's B matrix is singular (c > 0), or w = 0 is
# an eigenvalue (c < 0).  The roots are the ones scipy's QZ gave on that pencil;
# the solver takes the pencil for c > 0 and counts the c < 0 branch.
PENCIL_SINGULAR_CELLS = [
    ((3, 0.7, 2.0, 1), 1.8690348548508238),
    ((3, 0.7, -2.0, 1), 0.566255490118392),
    ((4, 0.3, 3.0, 2), 2.5071401258008152),
    ((2, 1.1, 1.0, 0), 1.5170454302755951),
    ((5, 0.0, 2.5, 3), 0.7281119789332179),
]


@pytest.mark.parametrize("cell,want", PENCIL_SINGULAR_CELLS)
def test_pencil_at_a_singular_coefficient(cell, want):
    n, s, c, j = cell
    big_b = ((j + s + 0.5) / c) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _alpha_roots(n, s, c, 2.0 * (n + s + 1.0), big_b)
    assert len(got) == 1
    assert abs(got[0] - want) <= 1e-12 * want


# CLI cells (m = 1, chi = 0, l = 0) with c sqrt(B) = d_j: s = b at l = 0, so
# d_j = j + b + 1/2, and c sqrt(B) = b k (b = 0.3, k = 6 gives 1.8 = d_1 only to
# rounding).  The pencil then has a root at y = 0 (alpha = inf), or one at y of
# about 1e-16 that hangs on the last bits of c, A and B.  The count cannot tell
# either from alpha = inf, so neither is a state; the cell's other roots are.
ROOT_AT_Y_0_CELLS = [
    (2, 0.5, 6.0), (4, 0.5, 6.0), (2, 0.3, 6.0), (5, 0.3, 6.0), (2, 1.0, 3.5), (7, 1.0, 1.5)
]


@pytest.mark.parametrize("n,b,k", ROOT_AT_Y_0_CELLS)
def test_pencil_root_at_y_0_is_no_state(n, b, k):
    s = coulomb_eta(0.0, b)
    got = _alpha_roots(n, s, 2.0 * b, 2.0 * (n + s + 1.0), 0.25 * k * k)
    assert got == pytest.approx(qz_pencil_alphas(n, s, 2.0 * b, k), rel=1e-12, abs=0.0)
    assert solve_general_n(QuantumNumbers(n, 0, k), 1.0, chi=0.0, b=b)


def test_pencil_matches_qz_on_seeded_cells():
    rng = np.random.default_rng(2001)
    roots_seen = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        s = float(rng.uniform(0.0, 3.0))
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0))
        # kappa = |c| sqrt(B) / d_0 in [1, 6]: the c > 0 cells take the pencil
        # path, the c < 0 cells the count.
        k = 2.0 * float(rng.uniform(1.0, 6.0)) * (s + 0.5) / abs(c)
        want = qz_pencil_alphas(n, s, c, k)
        got = _alpha_roots(n, s, c, 2.0 * (n + s + 1.0), 0.25 * k * k)
        assert len(got) == len(want), (n, s, c, k)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w, (n, s, c, k)
        roots_seen += len(got)
    assert roots_seen > 200


def newton_step(n, s, c, big_a, big_b, alpha):
    """The next Newton step on det(S(mu(alpha)) - alpha), from LAPACK's dense
    eigh: d log|det|/d alpha = sum_i (lambda_i' - 1)/(lambda_i - alpha), with
    lambda_i' = v_i^T D^{-1} v_i mu'(alpha) by Hellmann-Feynman."""
    root = math.sqrt(big_a + big_b * alpha * alpha)
    inv_d, off = slope_matrix(n, s, 1.0)
    lam, vec = np.linalg.eigh(np.diag(c * root * inv_d) + np.diag(off, 1) + np.diag(off, -1))
    dlam = (vec * vec * inv_d[:, None]).sum(axis=0) * c * big_b * alpha / root
    with np.errstate(divide="ignore"):  # alpha on an eigenvalue: a zero step
        return -1.0 / np.sum((dlam - 1.0) / (lam - alpha))


# CLI cells (m = 1, chi = 0) past n = 32, where the pencil used to lose real
# roots: root counts per branch, and some + alphas, from a
# 200001-point dense eigvalsh scan of each branch with brentq polish.
LARGE_N_PENCIL_CELLS = [
    ((44, 0.3, 3.0, 0), {1: 22, -1: 22}, None),
    ((32, 1.0, 20.0, 2), {1: 2, -1: 15}, [8.72555449674563, 13.31106279575246]),
    ((33, 5.0, 12.0, 2), {1: 11, -1: 11}, None),
]


@pytest.mark.parametrize("cell,counts,plus_alphas", LARGE_N_PENCIL_CELLS)
def test_pencil_keeps_every_root_at_large_n(cell, counts, plus_alphas):
    n, b, k, l = cell
    s = coulomb_eta(float(l), b)
    big_a, big_b = 2.0 * (n + s + 1.0), 0.25 * k * k
    for sign, want in counts.items():
        c = 2.0 * b * sign
        got = _alpha_roots(n, s, c, big_a, big_b)
        assert len(got) == want, sign
        for a in got:
            assert abs(newton_step(n, s, c, big_a, big_b, a)) <= 1e-10 * a, (sign, a)
        if sign == 1 and plus_alphas is not None:
            assert got == pytest.approx(plus_alphas, rel=1e-12, abs=0.0)
    pts = solve_general_n(QuantumNumbers(n, l, k), 1.0, chi=0.0, b=b)
    assert {sign: sum(p.branch == sign for p in pts) for sign in counts} == counts


def dense_branch_roots(n, s, c, big_a, big_b):
    """Roots alpha > 0 of a c < 0 or kappa < 1 cell, where each
    lambda_i(mu(alpha)) - alpha falls, so one per eigen-branch that is above
    alpha at alpha = 0: brentq on lambda_i(mu(alpha)) - alpha between 0 and a
    power of two past the largest eigenvalue, with lambda_i from LAPACK's dense
    eigvalsh of S(mu), so no Sturm count is involved."""
    inv_d, off = slope_matrix(n, s, 1.0)
    base = np.diag(off, 1) + np.diag(off, -1)

    def lam(alpha):
        return np.linalg.eigvalsh(base + np.diag(c * math.sqrt(big_a + big_b * alpha**2) * inv_d))

    hi = 1.0
    while lam(hi)[-1] >= hi:
        hi *= 2.0
    at_zero = lam(0.0)
    return [
        brentq(lambda a: lam(a)[i] - a, 0.0, hi, xtol=1e-15, rtol=8.9e-16)
        for i in range(n + 1)
        if at_zero[i] > 0.0
    ]


def seeded_kappa_lt1_cells():
    rng = np.random.default_rng(1607)
    for _ in range(60):
        n = int(rng.integers(1, 46))
        s = float(rng.uniform(0.0, 5.0))
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
        # kappa = |c| sqrt(B) / d_0 in (0, 0.9]: the count path, away from the pencil.
        sqrt_b = float(rng.uniform(1e-3, 0.9)) * (s + 0.5) / abs(c)
        yield n, s, c, 2.0 * (n + s + 1.0), sqrt_b * sqrt_b


def negative_c_cells():
    """c < 0 cells with kappa in [1, 30] and n up to 45: the CLI's m = 1, chi = 0
    branches at n = 44, 45, where a quadratic-pencil solve lost up to 3 of
    about 20 roots, then seeded ones."""
    for n in (44, 45):
        for b, k, l in [(0.3, 3.0, 0), (1.0, 3.0, 0), (1.0, 3.0, 2), (5.0, 3.0, 2)]:
            s = coulomb_eta(float(l), b)
            yield n, s, -2.0 * b, 2.0 * (n + s + 1.0), 0.25 * k * k
    rng = np.random.default_rng(1967)
    for _ in range(40):
        n = int(rng.integers(1, 46))
        s = float(rng.uniform(0.0, 5.0))
        c = -float(rng.uniform(0.5, 10.0))
        sqrt_b = float(rng.uniform(1.0, 30.0)) * (s + 0.5) / abs(c)
        yield n, s, c, 2.0 * (n + s + 1.0), sqrt_b * sqrt_b


def roots_matching_dense_branches(cells):
    roots_seen = 0
    for cell in cells:
        want = dense_branch_roots(*cell)
        got = _alpha_roots(*cell)
        assert len(got) == len(want), cell
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w, cell
        roots_seen += len(got)
    return roots_seen


def test_kappa_lt1_roots_match_dense_branches():
    assert roots_matching_dense_branches(seeded_kappa_lt1_cells()) > 600


def test_negative_c_roots_match_dense_branches():
    assert roots_matching_dense_branches(negative_c_cells()) > 400


def counted_cells():
    """Seeded cells of every counted branch, n up to 60 and s up to 4e4: constant mu
    (c = 0 or B = 0), c < 0, and c > 0 at kappa < 1, kappa = 1 - 1e-6 among them."""
    rng = np.random.default_rng(2741)
    for _ in range(12):
        n = int(rng.integers(1, 61))
        s = float(rng.choice([rng.uniform(0.0, 5.0), rng.uniform(0.0, 4e4)]))
        big_a, c = 2.0 * (n + s + 1.0), float(rng.uniform(0.05, 5.0))
        yield n, s, 0.0, big_a, float(rng.uniform(0.0, 1e4))
        yield n, s, float(rng.choice([-c, c])), big_a, 0.0
        yield n, s, -c, big_a, float(rng.uniform(0.0, 1e4))
        for kappa in (float(rng.uniform(0.0, 1.0)), 1.0 - 1e-6):
            yield n, s, c, big_a, (kappa * (s + 0.5) / c) ** 2


def test_counted_top_is_past_every_eigenvalue(monkeypatch):
    # A counted branch takes its bracket's top in closed form, with no pass
    # (module docstring), so count(top) = n + 1 must hold by construction:
    # LAPACK's eigenvalues of S(mu(top)) all lie below top.  Near kappa = 1 the
    # largest roots are nearly tangent, and the count may not prove them (ROADMAP
    # item 20); the top is recorded before the proof either way.
    tops = []
    find_steps = quantization.find_steps

    def recorded(sturm, brackets, *args):
        tops.extend(hi for lo, hi, n_lo, n_hi in brackets if n_lo != n_hi)
        return find_steps(sturm, brackets, *args)

    monkeypatch.setattr(quantization, "find_steps", recorded)
    checked = 0
    for n, s, c, big_a, big_b in counted_cells():
        tops.clear()
        with contextlib.suppress(NoRoots):
            _alpha_roots(n, s, c, big_a, big_b)
        if not tops:  # no root: every eigenvalue is below alpha from alpha = 0 on
            continue
        (top,) = set(tops)
        diag, off = slope_matrix(n, s, c * math.sqrt(big_a + big_b * top * top))
        lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert lam[-1] < top, (n, s, c, big_a, big_b)
        checked += 1
    assert checked > 50


def test_a_root_on_a_bracket_edge_does_not_crawl(monkeypatch):
    # Newton starts as soon as bisection isolates the step.  Bisecting on to a
    # fixed width first can leave root 1 of this cell within rounding of a
    # bracket edge, where every Newton step is about half the bracket and
    # becomes bisection: 60 passes for the cell.  Here the count at
    # alpha = PROOF_WIDTH, 11 search passes for both roots, the count at the
    # bracket's top and the proof's 4 make 17.
    passes = []
    sturm_pass = sturm._pass

    def counted(*args):
        passes.append(sturm_pass(*args))
        return passes[-1]

    monkeypatch.setattr(sturm, "_pass", counted)
    roots = _alpha_roots(3, 2.2, 0.2, 12.4, 2.25)
    assert len(passes) <= 30
    assert roots == pytest.approx(dense_branch_roots(3, 2.2, 0.2, 12.4, 2.25), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "cell",
    [
        (3, 2.2, 0.2, 12.4, 2.25),  # c > 0, kappa = 0.11
        (16, 0.0, 0.0, 34.0, 0.0),  # constant mu
        (24, 0.7, 0.6, 51.4, 3.24),  # c > 0, kappa = 0.9
        (24, 3.0, -1.0, 56.0, 2.0),  # c < 0
        (60, 0.5, 0.0, 123.0, 0.0),  # constant mu
        (16, 1.0, 3.0, 36.0, 1.0),  # c > 0, kappa = 2: the pencil, 9 brackets
        (44, 0.0, 0.6, 90.0, 2.25),  # c > 0, kappa = 1.8: the pencil
    ],
)
def test_a_branch_probes_each_point_once(monkeypatch, cell):
    # One search splits the branch's bracket among its roots, so no count is
    # taken twice at one alpha.  A search that restarts from the whole bracket
    # for every root repeats its bisection probes: 150 of 421 passes at n = 60.
    # The pencil's isolating brackets meet end to end; counting each bracket's
    # edges on their own repeats 8 of 88 passes at n = 16.
    xs = []
    sturm_pass = sturm._pass

    def counted(diag, slope, off2, x, pivmin):
        xs.append(x)
        return sturm_pass(diag, slope, off2, x, pivmin)

    monkeypatch.setattr(sturm, "_pass", counted)
    assert len(_alpha_roots(*cell)) >= 2
    assert len(set(xs)) == len(xs)


# One cell per solver path (m = 1, chi = 0): constant mu (free), the count
# (the c > 0, kappa < 1 branch is solved first), and the pencil (the c > 0,
# kappa >= 1 branch, with three roots).
PATH_CELLS = {
    "constant": (QuantumNumbers(4, 1, 0.5), 0.0),
    "count": (QuantumNumbers(4, 1, 0.7), 0.1),
    "pencil": (QuantumNumbers(8, 0, 3.0), 1.5),
}


@pytest.mark.parametrize(
    "path,target",
    [("constant", "find_steps"), ("count", "find_steps"), ("pencil", "_pencil_roots")],
)
def test_a_detuned_root_fails_its_proof(monkeypatch, path, target):
    # A solver whose roots are 1% off: the eigenvalue count does not step at
    # the first of them, so the cell has no proven spectrum.
    qn, b = PATH_CELLS[path]
    assert len(solve_general_n(qn, 1.0, chi=0.0, b=b)) >= 2
    solver = getattr(quantization, target)

    def detuned(*args):
        return [1.01 * a for a in solver(*args)]

    monkeypatch.setattr(quantization, target, detuned)
    with pytest.raises(NoRoots, match="does not step at alpha="):
        solve_general_n(qn, 1.0, chi=0.0, b=b)


def test_a_lost_pencil_root_fails_the_window_count(monkeypatch):
    qn, b = PATH_CELLS["pencil"]
    pencil = quantization._pencil_roots
    monkeypatch.setattr(quantization, "_pencil_roots", lambda *args: pencil(*args)[1:])
    with pytest.raises(NoRoots, match="of the eigenvalue count's [0-9]+ steps"):
        solve_general_n(qn, 1.0, chi=0.0, b=b)


def alpha_of_y(y):
    """The alpha of a pencil root y = x^2 at r = 1: (1/sqrt(y) - sqrt(y)) / 2."""
    return 0.5 * (1.0 - y) / math.sqrt(y)


def test_isolation_stops_on_a_double_root(monkeypatch):
    # A double root keeps two sign changes at every depth.  On a bisection
    # point (y = 1/4) it shows at once; off them (y = 1/3) bisection stops
    # where the bracket is narrower in alpha than the proof's width, about 44
    # halvings of (0, 1) here, at 3 Taylor shifts per level.
    shifts = []
    taylor_shift = quantization._taylor_shift

    def counted(p):
        shifts.append(len(p))
        return taylor_shift(p)

    monkeypatch.setattr(quantization, "_taylor_shift", counted)
    with pytest.raises(NoRoots, match=f"a multiple root at alpha={alpha_of_y(0.25)!r}"):
        _isolate([1, -7, 8, 16], 1.0)  # (4y - 1)^2 (y + 1), lowest coefficient first
    assert len(shifts) <= 6
    shifts.clear()
    with pytest.raises(NoRoots, match="a multiple root, or two too close") as err:
        _isolate([1, -5, 3, 9], 1.0)  # (3y - 1)^2 (y + 1)
    assert len(shifts) <= 3 * math.ceil(math.log2(1.0 / PROOF_WIDTH))
    lo, hi = map(float, re.search(r"\[(.*), (.*)\]", str(err.value)).groups())
    assert lo < alpha_of_y(1 / 3) < hi
    assert hi - lo <= PROOF_WIDTH


def test_isolation_keeps_a_root_on_a_bisection_point():
    # (2y - 1)(4y - 1)(4y - 3): the first bisection of (0, 1) lands on the root
    # y = 1/2, which comes back once, exact in y.  (1/2, 1) isolates y = 3/4.
    # (0, 1/2) holds one root too, but its alpha bracket is not finite, so it
    # is split, and the second bisection lands on y = 1/4: exact as well.
    brackets = sorted(_isolate([-3, 22, -48, 32], 1.0))
    exact = [alpha_of_y(y) for y in (0.5, 0.25)]
    assert [b for b in brackets if b[0] == b[1]] == [(a, a) for a in exact]
    others = [b for b in brackets if b[0] != b[1]]
    assert len(others) == 1
    assert others[0][0] < alpha_of_y(0.75) < others[0][1]


def test_a_bracket_edge_on_an_exact_root_steps_inside(monkeypatch):
    # An exact root's alpha is rounded, and the count on it may read either
    # side.  Here root 0 of the pencil cell comes back exact, 1e-14 below its
    # alpha, and root 1's bracket starts on it: counted from that edge, the
    # bracket would hold both roots.  The edge steps in by the proof's width.
    n, s = 8, coulomb_eta(0.0, 1.5)
    cell = (n, s, 3.0, 2.0 * (n + s + 1.0), 2.25)
    roots = _alpha_roots(*cell)
    assert len(roots) >= 3
    exact = roots[0] * (1.0 - 1e-14)
    isolate = quantization._isolate

    def edge_on_root(p, r):
        brackets = [b for b in isolate(p, r) if not b[0] < roots[0] < b[1]]
        return [(exact, exact)] + [(exact, hi) if lo < roots[1] < hi else (lo, hi) for lo, hi in brackets]

    monkeypatch.setattr(quantization, "_isolate", edge_on_root)
    got = _alpha_roots(*cell)
    assert got[0] == exact
    assert got[1:] == pytest.approx(roots[1:], rel=1e-14, abs=0.0)


class TestSolveGeneralN:
    def test_ground_free_unique_root(self):
        pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, chi=0.0)
        assert len(pts) == 1
        assert pts[0].nu_solved == pytest.approx(1.5, rel=1e-12)
        assert pts[0].energies[0] == pytest.approx(math.sqrt(6), rel=1e-12)
        assert pts[0].energies[1] == -pts[0].energies[0]
        assert pts[0].scenario == "free"
        assert pts[0].branch is None

    def test_matches_closed_form_over_grid(self):
        for m in (0.5, 2.0):
            for l in (-2, 0, 3):
                for k in (0.0, 1.0):
                    for chi in (0.0, 0.25):
                        eff = l - chi * k
                        pts = solve_general_n(QuantumNumbers(1, l, k), m, chi=chi)
                        assert pts[0].nu_solved == pytest.approx(
                            nu_ground_free(m, eff), rel=1e-10
                        )
                        assert pts[0].energies[0] == pytest.approx(
                            energy_ground_free(m, eff, k)[0], rel=1e-10
                        )

    def test_second_level_matches_polynomial_oracle(self):
        want = free_nu_roots_oracle(2, 0.0)
        assert want == pytest.approx([15.0 / 28.0], rel=1e-12)
        pts = solve_general_n(QuantumNumbers(2, 0, 0.0), 1.0, chi=0.0)
        assert [p.nu_solved for p in pts] == pytest.approx(want, rel=1e-10)

    def test_third_level_matches_polynomial_oracle(self):
        want = free_nu_roots_oracle(3, 0.0)
        assert want == pytest.approx(
            [0.3061829328248656, 3.175298548656614], rel=1e-12
        )
        pts = solve_general_n(QuantumNumbers(3, 0, 0.0), 1.0, chi=0.0)
        assert [p.nu_solved for p in pts] == pytest.approx(want, rel=1e-10)
        # multiple roots come back ascending in nu
        assert pts[0].nu_solved < pts[1].nu_solved

    def test_coulomb_matches_closed_branch_set(self):
        for b in (0.1, 1.0):
            pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, chi=0.0, b=b)
            got = sorted(e for p in pts for e in p.energies)
            eta = coulomb_eta(0.0, b)
            want = sorted(energy_ground_coulomb(1.0, b, eta, 0.0))
            assert got == pytest.approx(want, rel=1e-10)

    def test_coulomb_branches_are_separated(self):
        pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, chi=0.0, b=0.1)
        branches = {p.branch for p in pts}
        assert branches == {1, -1}
        for p in pts:
            assert len(p.energies) == 1
            assert (p.energies[0] > 0) == (p.branch == 1)

    def test_flux_scenario_shifts_momentum(self):
        pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, chi=0.5, flux=0.25)
        assert pts[0].scenario == "ab"
        assert pts[0].eff == pytest.approx(0.25, abs=1e-15)
        assert pts[0].nu_solved == pytest.approx(1.75, rel=1e-10)
        assert pts[0].energies[0] == pytest.approx(2.806243040080456, rel=1e-10)

    def test_flux_periodicity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            l = int(rng.integers(-3, 4))
            k = float(rng.uniform(-1, 1))
            t = float(rng.uniform(-0.5, 0.5))
            a = solve_general_n(QuantumNumbers(1, l, k), 1.0, chi=0.3, flux=t + 1)
            b = solve_general_n(QuantumNumbers(1, l + 1, k), 1.0, chi=0.3, flux=t)
            assert a[0].energies[0] == pytest.approx(b[0].energies[0], abs=1e-12)

    def test_momentum_sign_symmetry(self):
        up = solve_general_n(QuantumNumbers(1, 2, 0.0), 1.0, chi=0.0)
        down = solve_general_n(QuantumNumbers(1, -2, 0.0), 1.0, chi=0.0)
        assert up[0].nu_solved == down[0].nu_solved
        assert up[0].energies == down[0].energies

    def test_point_invariants(self):
        pts = solve_general_n(QuantumNumbers(2, 1, 0.5), 1.0, chi=0.25)
        for p in pts:
            assert abs(lambda_bar(p.params(1.0, 0.0)) - 2 * p.qn.n) < 1e-10
            assert p.trunc_rel < 1e-12
            assert len(p.coeffs) == p.qn.n + 1
            # re-derive the truncation residual from the printed energy
            params = params_at_energy(1.0, p.nu_solved, p.energies[0], p.qn.k, 0.0, p.eff_abs)
            assert abs(build_coefficients(params, n_max=p.qn.n + 1)[p.qn.n + 1]) < 1e-10

    @pytest.mark.parametrize(
        "n,k,b",
        [(2, 0.0, 0.0), (1, 0.7, 0.1), (2, 3.0, 1.5)],  # constant mu, Sturm count, pencil
    )
    def test_slopes_are_python_floats(self, n, k, b):
        pts = solve_general_n(QuantumNumbers(n, 1, k), 1.0, chi=0.0, b=b)
        assert pts
        for pt in pts:
            # np.float64 subclasses float, so only the exact type tells them apart.
            assert type(pt.nu_solved) is float

    def test_root_at_small_alpha_is_solved(self):
        # The one root alpha = 2/sqrt(40001.5) is below 0.01; the closed form
        # gives nu = m^2 (|eff| + 3/2).
        pts = solve_general_n(QuantumNumbers(1, 40000, 0.0), 1.0, chi=0.0)
        assert [p.nu_solved for p in pts] == pytest.approx([40001.5], rel=1e-14)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            solve_general_n(QuantumNumbers(1, 0, 0.0), -1.0, chi=0.0)

    def test_background_is_keyword_only(self):
        # chi, b and flux are three floats; passed by position they would bind silently.
        with pytest.raises(TypeError):
            solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, 0.2, 0.1)
        with pytest.raises(TypeError):
            solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0)
        free = solve_general_n(QuantumNumbers(1, 0, 0.7), 1.0, chi=0.2)
        assert free == solve_general_n(QuantumNumbers(1, 0, 0.7), 1.0, chi=0.2, b=0.0, flux=0.0)


def slope_matrix(n, s, mu):
    """Diagonal and off-diagonal of the symmetric slope matrix S(mu), built in
    numpy from the recurrence rows, as a reference for the plain-float count."""
    j = np.arange(n, dtype=float)
    d = np.arange(n + 1, dtype=float) + s + 0.5
    off = np.sqrt((j + 1.0) * (j + 1.0 + 2.0 * s) * 2.0 * (n - j) / (d[:-1] * d[1:]))
    return mu / d, off


class TestTridiagonalEigh:
    # At constant mu the roots are the eigenvalues of S(mu) above PROOF_WIDTH:
    # mu = c sqrt(A) with A = 1 and B = 0.
    @pytest.mark.parametrize("s", [0.0, 0.5, 3.2])
    @pytest.mark.parametrize("mu", [0.0, 2.0, -2.0])
    def test_matches_numpy_eigh(self, s, mu):
        for n in range(1, 61):
            diag, off = slope_matrix(n, s, mu)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            lam = np.linalg.eigvalsh(dense)
            got = _alpha_roots(n, s, mu, 1.0, 0.0)
            assert got == sorted(got)
            want = lam[lam > PROOF_WIDTH]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.linalg.norm(dense, 2))

    @pytest.mark.parametrize("n", [2, 4, 10, 30])
    def test_odd_free_matrix_zero_eigenvalue_is_dropped(self, n):
        # mu = 0 leaves a zero diagonal, so an odd-sized S has the spectrum
        # -x..., 0, ...x, and rounding leaves the zero at about 1e-16 of either
        # sign.  The count at PROOF_WIDTH holds it either way, so it is not a
        # root: the states are the positive roots alone.
        diag, off = slope_matrix(n, 1.0, 0.0)
        lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert abs(lam[n // 2]) < 1e-14 * lam[-1]
        pts = solve_general_n(QuantumNumbers(n, 1, 0.0), 1.0, chi=0.0)
        alphas = sorted(2.0 / math.sqrt(p.nu_solved) for p in pts)
        assert alphas == pytest.approx(lam[n // 2 + 1 :], rel=1e-14)


def exact_count(n, s, ca, x):
    """The number of eigenvalues of S(mu) below x at mu = ca, in exact rationals.

    S(mu) - x = D^{-1/2} (T_sym + ca I - x D) D^{-1/2}, with T_sym the
    zero-diagonal symmetrized recurrence matrix, whose squared off-diagonal
    entries sup_j sub_j are rational.  By Sylvester's law of inertia the count
    is the number of negative LDL^T pivots of T_sym + ca I - x D."""
    s, ca, x = Fraction(s), Fraction(ca), Fraction(x)
    count, q = 0, Fraction(1)
    for j in range(n + 1):
        off2 = 0 if j == 0 else j * (j + 2 * s) * 2 * (n - j + 1)  # sup_{j-1} sub_{j-1}
        q = ca - x * (j + s + Fraction(1, 2)) - off2 / q
        assert q != 0
        count += q < 0
    return count


def test_constant_mu_roots_step_the_exact_count():
    # Each constant-mu root must be within 1e-14 relative of an eigenvalue of
    # the matrix built from the float c sqrt(A) the solver uses: the exact count
    # steps by one across it.  An absolute-accuracy eigensolver misses this on
    # small roots (about 1e-13 relative at n = 40); the count does not.  The
    # roots cover alpha > 0 far from 1: c = 1e-4 lifts the zero eigenvalue of
    # the odd-sized free matrix to a root near 1e-4 (7e-7 at s = 40000),
    # s = 40000 puts one more near 2e-3, and c = 40 puts roots past 50.
    roots_seen, small, large = 0, 0, 0
    for n in (8, 16, 24, 30, 40):
        for s in (0.0, 0.5, 1.25, 2.21, 4.09, 40000.0):
            for c in (0.0, 0.3, -0.3, -1.148, 2.056, 1e-4, 40.0):
                big_a = 2.0 * (n + s + 1.0)
                ca = c * math.sqrt(big_a)
                for alpha in _alpha_roots(n, s, c, big_a, 0.0):
                    below = exact_count(n, s, ca, alpha * (1.0 - 1e-14))
                    assert exact_count(n, s, ca, alpha * (1.0 + 1e-14)) - below == 1, (n, s, c, alpha)
                    roots_seen += 1
                    small += alpha < 0.01
                    large += alpha > 50.0
    assert (roots_seen, small, large) == (2964, 37, 106)
