import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.linalg import eig
from scipy.optimize import brentq

from dislospec import (
    Couplings,
    DefectGeometry,
    DegenerateDenominator,
    MassProfile,
    NonPositiveSlope,
    NoRealSolution,
    NoRoots,
    QuantumNumbers,
    build_coefficients,
    coulomb_eta,
    energy_from_lambda,
    energy_ground_coulomb,
    energy_ground_free,
    heun_params,
    nu_ground_coulomb,
    nu_ground_free,
    solve_general_n,
)
from dislospec import quantization
from dislospec.heun import lambda_bar
from dislospec.quantization import (
    ALPHA_MAX,
    ALPHA_MIN,
    NEWTON_RTOL,
    _alpha_roots,
    _sturm_root,
)

FLAT = DefectGeometry(chi=0.0)
FREE = Couplings()


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
    # |c| sqrt(B) / d_0 >= 1 here, so the c > 0 branch takes the companion-pencil
    # path and the c < 0 branch the count; n = 1 has no root on either branch.
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
    geom = DefectGeometry(chi=0.25)
    coup = Couplings(b=b, q=1.0, phi_B=t * 2 * math.pi)
    if not any(wants.values()):
        with pytest.raises(NoRoots):
            solve_general_n(qn, 1.0, geom, coup)
        return
    pts = solve_general_n(qn, 1.0, geom, coup)
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
        roots = _alpha_roots(n, s, c, 2.0 * (n + s + 1.0), big_b)
    got = [a for a in roots if ALPHA_MIN <= a <= ALPHA_MAX]
    assert len(got) == 1
    assert abs(got[0] - want) <= 1e-12 * want


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
        want = [a for a in qz_pencil_alphas(n, s, c, k) if ALPHA_MIN <= a <= ALPHA_MAX]
        roots = _alpha_roots(n, s, c, 2.0 * (n + s + 1.0), 0.25 * k * k)
        got = [a for a in roots if ALPHA_MIN <= a <= ALPHA_MAX]
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
# roots: window root counts per branch, and some + alphas, from a
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
        got = [a for a in _alpha_roots(n, s, c, big_a, big_b) if ALPHA_MIN <= a <= ALPHA_MAX]
        assert len(got) == want, sign
        for a in got:
            assert abs(newton_step(n, s, c, big_a, big_b, a)) <= 1e-10 * a, (sign, a)
        if sign == 1 and plus_alphas is not None:
            assert got == pytest.approx(plus_alphas, rel=1e-12, abs=0.0)
    pts = solve_general_n(QuantumNumbers(n, l, k), 1.0, FLAT, Couplings(b=b))
    assert {sign: sum(p.branch == sign for p in pts) for sign in counts} == counts


def dense_branch_roots(n, s, c, big_a, big_b):
    """Window roots of a c < 0 or kappa < 1 cell, where each lambda_i(mu(alpha))
    - alpha falls, so one per eigen-branch that crosses alpha in the window:
    brentq on lambda_i(mu(alpha)) - alpha, with lambda_i from LAPACK's dense
    eigvalsh of S(mu), so no Sturm count is involved."""
    inv_d, off = slope_matrix(n, s, 1.0)
    base = np.diag(off, 1) + np.diag(off, -1)

    def lam(alpha):
        return np.linalg.eigvalsh(base + np.diag(c * math.sqrt(big_a + big_b * alpha**2) * inv_d))

    at_min, at_max = lam(ALPHA_MIN) - ALPHA_MIN, lam(ALPHA_MAX) - ALPHA_MAX
    return [
        brentq(lambda a: lam(a)[i] - a, ALPHA_MIN, ALPHA_MAX, xtol=1e-15, rtol=8.9e-16)
        for i in range(n + 1)
        if at_min[i] > 0.0 > at_max[i]
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


def test_kappa_lt1_root_on_a_zero_pivot():
    # A pass on the step itself can set its last LDL^T pivot to -pivmin and
    # overflow d log|det| to infinity.  Here the first Newton point, the
    # bracket's midpoint, is the root.  One probe inside the bracket proves the
    # step there; a search that bisects on a non-finite d log|det| takes 94.
    root, passes = 2.0, []

    def sturm(x):  # one eigenvalue at root: count and d log|root - x|/dx
        passes.append(x)
        return int(x >= root), math.inf if x == root else 1.0 / (x - root)

    got = _sturm_root(sturm, 0, 0.0, 4.0, 0, 1, None, NEWTON_RTOL)
    assert passes[0] == root
    assert len(passes) <= 4
    assert got == pytest.approx(root, rel=NEWTON_RTOL, abs=0.0)


def test_a_root_on_a_bracket_edge_does_not_crawl(monkeypatch):
    # Newton starts as soon as bisection isolates the step.  Bisecting on to a
    # fixed width first can leave root 1 of this cell within rounding of a
    # bracket edge, where every Newton step is about half the bracket and
    # becomes bisection: 60 passes for the cell.  Here the two window edges,
    # 10 and 14 passes for the two roots and the proof's 4 make 30.
    passes = []
    sturm_pass = quantization._sturm_pass

    def counted(*args):
        passes.append(sturm_pass(*args))
        return passes[-1]

    monkeypatch.setattr(quantization, "_sturm_pass", counted)
    roots = _alpha_roots(3, 2.2, 0.2, 12.4, 2.25)
    assert len(passes) <= 30
    assert roots == pytest.approx(dense_branch_roots(3, 2.2, 0.2, 12.4, 2.25), rel=1e-12, abs=0.0)


# One cell per solver path (m = 1, chi = 0): constant mu (free), the count
# (the c > 0, kappa < 1 branch is solved first), and the pencil (the c > 0,
# kappa >= 1 branch, with three roots).
PATH_CELLS = {
    "constant": (QuantumNumbers(4, 1, 0.5), Couplings()),
    "count": (QuantumNumbers(4, 1, 0.7), Couplings(b=0.1)),
    "pencil": (QuantumNumbers(8, 0, 3.0), Couplings(b=1.5)),
}


@pytest.mark.parametrize(
    "path,target",
    [("constant", "_sturm_root"), ("count", "_sturm_root"), ("pencil", "_pencil_roots")],
)
def test_a_detuned_root_fails_its_proof(monkeypatch, path, target):
    # A solver whose roots are 1% off: the eigenvalue count does not step at
    # the first of them, so the cell has no proven spectrum.
    qn, coup = PATH_CELLS[path]
    assert len(solve_general_n(qn, 1.0, FLAT, coup)) >= 2
    solver = getattr(quantization, target)

    def detuned(*args):
        roots = solver(*args)
        return 1.01 * roots if target == "_sturm_root" else [1.01 * a for a in roots]

    monkeypatch.setattr(quantization, target, detuned)
    with pytest.raises(NoRoots, match="does not step at alpha="):
        solve_general_n(qn, 1.0, FLAT, coup)


def test_a_lost_pencil_root_fails_the_window_count(monkeypatch):
    qn, coup = PATH_CELLS["pencil"]
    pencil = quantization._pencil_roots
    monkeypatch.setattr(quantization, "_pencil_roots", lambda *args: pencil(*args)[1:])
    with pytest.raises(NoRoots, match="of the eigenvalue count's [0-9]+ steps"):
        solve_general_n(qn, 1.0, FLAT, coup)


class TestSolveGeneralN:
    def test_ground_free_unique_root(self):
        pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, FLAT, FREE)
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
                        geom = DefectGeometry(chi=chi)
                        eff = l - chi * k
                        pts = solve_general_n(QuantumNumbers(1, l, k), m, geom, FREE)
                        assert pts[0].nu_solved == pytest.approx(
                            nu_ground_free(m, eff), rel=1e-10
                        )
                        assert pts[0].energies[0] == pytest.approx(
                            energy_ground_free(m, eff, k)[0], rel=1e-10
                        )

    def test_second_level_matches_polynomial_oracle(self):
        want = free_nu_roots_oracle(2, 0.0)
        assert want == pytest.approx([15.0 / 28.0], rel=1e-12)
        pts = solve_general_n(QuantumNumbers(2, 0, 0.0), 1.0, FLAT, FREE)
        assert [p.nu_solved for p in pts] == pytest.approx(want, rel=1e-10)

    def test_third_level_matches_polynomial_oracle(self):
        want = free_nu_roots_oracle(3, 0.0)
        assert want == pytest.approx(
            [0.3061829328248656, 3.175298548656614], rel=1e-12
        )
        pts = solve_general_n(QuantumNumbers(3, 0, 0.0), 1.0, FLAT, FREE)
        assert [p.nu_solved for p in pts] == pytest.approx(want, rel=1e-10)
        # multiple roots come back ascending in nu
        assert pts[0].nu_solved < pts[1].nu_solved

    def test_coulomb_matches_closed_branch_set(self):
        for b in (0.1, 1.0):
            coup = Couplings(b=b)
            pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, FLAT, coup)
            got = sorted(e for p in pts for e in p.energies)
            eta = coulomb_eta(0.0, b)
            want = sorted(energy_ground_coulomb(1.0, b, eta, 0.0))
            assert got == pytest.approx(want, rel=1e-10)

    def test_coulomb_branches_are_separated(self):
        pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, FLAT, Couplings(b=0.1))
        branches = {p.branch for p in pts}
        assert branches == {1, -1}
        for p in pts:
            assert len(p.energies) == 1
            assert (p.energies[0] > 0) == (p.branch == 1)

    def test_flux_scenario_shifts_momentum(self):
        coup = Couplings(q=1.0, phi_B=0.25 * 2 * math.pi)
        pts = solve_general_n(QuantumNumbers(1, 0, 0.0), 1.0, DefectGeometry(0.5), coup)
        assert pts[0].scenario == "ab"
        assert pts[0].eff == pytest.approx(0.25, abs=1e-15)
        assert pts[0].nu_solved == pytest.approx(1.75, rel=1e-10)
        assert pts[0].energies[0] == pytest.approx(2.806243040080456, rel=1e-10)

    def test_flux_periodicity(self):
        rng = np.random.default_rng(13)
        geom = DefectGeometry(chi=0.3)
        for _ in range(10):
            l = int(rng.integers(-3, 4))
            k = float(rng.uniform(-1, 1))
            t = float(rng.uniform(-0.5, 0.5))
            a = solve_general_n(
                QuantumNumbers(1, l, k), 1.0, geom, Couplings(q=1.0, phi_B=(t + 1) * 2 * math.pi)
            )
            b = solve_general_n(
                QuantumNumbers(1, l + 1, k), 1.0, geom, Couplings(q=1.0, phi_B=t * 2 * math.pi)
            )
            assert a[0].energies[0] == pytest.approx(b[0].energies[0], abs=1e-12)

    def test_momentum_sign_symmetry(self):
        up = solve_general_n(QuantumNumbers(1, 2, 0.0), 1.0, FLAT, FREE)
        down = solve_general_n(QuantumNumbers(1, -2, 0.0), 1.0, FLAT, FREE)
        assert up[0].nu_solved == down[0].nu_solved
        assert up[0].energies == down[0].energies

    def test_point_invariants(self):
        pts = solve_general_n(QuantumNumbers(2, 1, 0.5), 1.0, DefectGeometry(0.25), FREE)
        for p in pts:
            assert abs(lambda_bar(p.params) - 2 * p.qn.n) < 1e-10
            assert p.trunc_rel < 1e-12
            assert len(p.coeffs) == p.qn.n + 1
            # re-derive the truncation residual through the public path
            params = heun_params(
                MassProfile(1.0, p.nu_solved), p.energies[0], p.qn.k, 0.0, p.eff_abs
            )
            assert abs(build_coefficients(params, n_max=p.qn.n + 1)[p.qn.n + 1]) < 1e-10

    @pytest.mark.parametrize(
        "n,k,b",
        [(2, 0.0, 0.0), (1, 0.7, 0.1), (2, 3.0, 1.5)],  # constant mu, Sturm count, pencil
    )
    def test_slopes_are_python_floats(self, n, k, b):
        pts = solve_general_n(QuantumNumbers(n, 1, k), 1.0, FLAT, Couplings(b=b, q=1.0))
        assert pts
        for pt in pts:
            # np.float64 subclasses float, so only the exact type tells them apart.
            assert type(pt.nu_solved) is float

    def test_no_roots_reports_window(self):
        # The one root alpha = 2/sqrt(40001.5) lies just below ALPHA_MIN.
        with pytest.raises(NoRoots, match=r"\[0\.01, 50\.0\]"):
            solve_general_n(QuantumNumbers(1, 40000, 0.0), 1.0, FLAT, FREE)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            solve_general_n(QuantumNumbers(1, 0, 0.0), -1.0, FLAT, FREE)


def slope_matrix(n, s, mu):
    """Diagonal and off-diagonal of the symmetric slope matrix S(mu), built in
    numpy from the recurrence rows, as a reference for the plain-float count."""
    j = np.arange(n, dtype=float)
    d = np.arange(n + 1, dtype=float) + s + 0.5
    off = np.sqrt((j + 1.0) * (j + 1.0 + 2.0 * s) * 2.0 * (n - j) / (d[:-1] * d[1:]))
    return mu / d, off


class TestTridiagonalEigh:
    # At constant mu the roots are the window eigenvalues of S(mu): mu = c sqrt(A)
    # with A = 1 and B = 0.
    @pytest.mark.parametrize("s", [0.0, 0.5, 3.2])
    @pytest.mark.parametrize("mu", [0.0, 2.0, -2.0])
    def test_matches_numpy_eigh(self, s, mu):
        for n in range(1, 61):
            diag, off = slope_matrix(n, s, mu)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            lam = np.linalg.eigvalsh(dense)
            got = _alpha_roots(n, s, mu, 1.0, 0.0)
            assert got == sorted(got)
            want = lam[(lam >= ALPHA_MIN) & (lam <= ALPHA_MAX)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.linalg.norm(dense, 2))

    @pytest.mark.parametrize("n", [2, 4, 10, 30])
    def test_odd_free_matrix_zero_eigenvalue_is_dropped(self, n):
        # mu = 0 leaves a zero diagonal, so an odd-sized S has the spectrum
        # -x..., 0, ...x, and rounding leaves the zero at about 1e-16 of either
        # sign.  ALPHA_MIN drops it: the states are the positive roots alone.
        diag, off = slope_matrix(n, 1.0, 0.0)
        lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert abs(lam[n // 2]) < 1e-14 * lam[-1]
        pts = solve_general_n(QuantumNumbers(n, 1, 0.0), 1.0, FLAT, FREE)
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
    # small roots (about 1e-13 relative at n = 40); the count does not.
    roots_seen = 0
    for n in (8, 16, 24, 30, 40):
        for s in (0.0, 0.5, 1.25, 2.21, 4.09):
            for c in (0.0, 0.3, -0.3, -1.148, 2.056):
                big_a = 2.0 * (n + s + 1.0)
                ca = c * math.sqrt(big_a)
                for alpha in _alpha_roots(n, s, c, big_a, 0.0):
                    below = exact_count(n, s, ca, alpha * (1.0 - 1e-14))
                    assert exact_count(n, s, ca, alpha * (1.0 + 1e-14)) - below == 1, (n, s, c, alpha)
                    roots_seen += 1
    assert roots_seen == 1544
