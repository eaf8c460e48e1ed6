"""Simultaneous solution of the two series-truncation conditions.

A bound state of radial index n exists where both

    lam = 2n            (energy relation)
    a_{n+1} = 0         (slope constraint)

hold.  The first fixes the energy in terms of the slope,

    E = +- sqrt(2 nu (n + s + 1) + k^2),      s = |effective momentum|,

and the second quantizes the slope nu itself.  For n = 1 both free and
Coulomb cases have closed forms.  For general n, write alpha = 2m/sqrt(nu).
At lam = 2n rows j = 0..n of the recurrence read

    alpha d_j a_j = (j+1)(j+1+2s) a_{j+1} + (2n-2j+2) a_{j-1} + mu a_j,

with d_j = j + s + 1/2 and a_{-1} = a_{n+1} = 0.  So a_{n+1}(alpha) = 0 says
alpha is an eigenvalue of a tridiagonal matrix (Golub-Welsch).  Its
off-diagonal products are positive, so a diagonal similarity makes it the
symmetric Jacobi matrix S(mu) = S_0 + mu D^{-1}.

On the energy relation mu = 2bE/sqrt(nu) = c sqrt(A + B alpha^2), with
c = +-2b (the sign of E), A = 2(n+s+1) and B = k^2/(4m^2).  Each root is a
fixed point alpha = lambda_i(mu(alpha)) of an eigenvalue lambda_i of S(mu).
Hellmann-Feynman gives d lambda_i/d mu = v^T D^{-1} v in (0, 1/d_0] for the
unit eigenvector v, so kappa = |c| sqrt(B)/d_0 bounds the slope of
lambda_i(mu(alpha)):

* constant mu (b k = 0, kappa = 0), c < 0 or kappa < 1: each
  lambda_i(mu(alpha)) - alpha strictly decreases (for c < 0, mu and so
  lambda_i fall as alpha grows), so root i is where the count of eigenvalues
  of S(mu(alpha)) below alpha steps to i + 1, and the sturm module's search
  finds them all in the branch's one bracket;
* c > 0 and kappa >= 1: a branch may cross several times or not at all.
  With alpha = r(w - 1/w)/2 and r = sqrt(A/B), mu = c sqrt(A)(w + 1/w)/2,
  and in x = 1/w the condition is the quadratic eigenproblem
  [x^2 L + 2x T + K0] a = 0, L = c sqrt(A) + r D, K0 = c sqrt(A) - r D
  (Tisseur & Meerbergen, SIAM Rev. 43 (2001) 235), whose roots 0 < x < 1 are
  the alpha > 0 roots.  One power of two makes every float entry an integer,
  and in y = x^2 the three-term recurrence on the diagonal L_j y + K0_j and
  the off-diagonal products 4 sup_j sub_j y gives det exactly, of degree
  n + 1.  Descartes' rule of signs with bisection isolates its roots in (0, 1)
  (Collins & Akritas, SYMSAC 1976).  The count's parity flips once across each
  isolating interval's alpha bracket, and the sturm module's search refines the
  root where the count steps by one, up or down.  A multiple root never isolates
  and raises NoRoots.  The pencil is used only here, where r <= c sqrt(A)/d_0.

One rule accepts a root on every path.  count(x), the sturm module's count, is
the number of eigenvalues of S(mu(x)) below x.  A root alpha stands only if
count changes by one across it, between alpha -+ PROOF_WIDTH max(alpha, 1) (by
+1 on counted branches, by +-1 on the pencil's), and the changes over the roots
must add up to count(top) - count(PROOF_WIDTH): a lost root fails too.  A root the count
cannot tell from alpha = 0, or from alpha = inf, is not a state.  On counted
branches top = 2 max(hi, 1)/(1 - kappa_+), with hi the Gershgorin upper bound of
S(c sqrt(A)) and kappa_+ = kappa for c > 0, else 0: mu(alpha)/d_j <= c sqrt(A)/d_j
+ kappa_+ alpha, and by Hellmann-Feynman lambda_i rises with mu at a slope at most
1/d_0, so S(mu(top)) has every eigenvalue below hi + kappa_+ top < top and
count(top) = n + 1 with no pass (the factor 2 keeps the largest root off the
edge).  On the pencil's it is alpha at y = PROOF_WIDTH, as a root at smaller y
hangs on the last bits of c, A and B (c sqrt(B) = d_j puts one at y = 0).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

from .core import HeunParams, QuantumNumbers, coulomb_eta, effective_angular_momentum
from .errors import NonPositiveSlope, NoRealSolution, NoRoots
from .heun import build_coefficients
from .sturm import counter, find_steps, gershgorin

# Where the n = 1 Coulomb quadratic's leading coefficient d is this close to 0, its
# root t/d is dropped: it lies past |E| = 2|P|/DEGENERATE_TOL, where alpha = 2m/sqrt(nu)
# is far below any root the slope solve proves (about 4e-17 at d = 0, l = k = 0).
DEGENERATE_TOL = 1e-12

# A root alpha is proven by the counts at alpha -+ PROOF_WIDTH * max(alpha, 1): wider
# than the solves' error (NEWTON_RTOL), narrower than any root spacing.  The count at
# alpha = PROOF_WIDTH stands for alpha = 0 (the +-1e-16 zero eigenvalue of an odd-sized
# free Jacobi matrix is no root).
PROOF_WIDTH = 1e-13

# sturm.find_steps' relative Newton stop on the slope solve.
NEWTON_RTOL = 1e-14


class SpectrumPoint(
    namedtuple(
        "SpectrumPoint",
        "qn eff_abs nu_solved energies coeffs branch trunc_rel",
    )
):
    """One solved bound state.

    energies is the (+E, -E) pair at b = 0, with branch None (the slope
    constraint is energy-sign blind there), or a single signed energy at
    b != 0 (the constraint depends on the sign of E through mu, so each sign
    is its own solution labeled by branch = +1 or -1).  The state is what
    spectrum prints and its polynomial: nu_solved fixes the radial equation and
    the envelope exp(-xi^2/2 - alpha xi/2) xi^nu_abs through params(m, b),
    energies[0] only its Coulomb term, and coeffs holds a_0..a_n of G.  The
    other fields: qn (QuantumNumbers), eff_abs (the s it was solved at,
    coulomb_eta(effective_angular_momentum(l, k, chi, flux), b)) and trunc_rel
    (|a_{n+1}| relative to max |a_0..a_n|).
    """

    __slots__ = ()

    def params(self, m: float, b: float) -> HeunParams:
        """The HeunParams at rest mass m and Coulomb strength b: alpha = 2m/sqrt(nu) and,
        by the energy relation lam = 2n, beta = 2(n + s + 1) - alpha^2/4 from the printed
        slope, so no E^2 - m^2 - k^2 cancels; only mu = 2bE/sqrt(nu) reads the printed E."""
        root_nu = math.sqrt(self.nu_solved)
        alpha = 2.0 * m / root_nu
        beta = 2.0 * (self.qn.n + self.eff_abs + 1.0) - 0.25 * alpha * alpha
        return HeunParams(self.eff_abs, alpha, beta, 2.0 * b * self.energies[0] / root_nu)


def energy_from_lambda(nu: float, n: int, eff_abs: float, k: float) -> tuple[float, float]:
    """Energy pair from the lam = 2n relation: +-sqrt(2 nu (n + eff_abs + 1) + k^2)."""
    if not nu > 0.0:
        raise NonPositiveSlope(f"energy relation needs nu > 0, got {nu}")
    e = math.sqrt(2.0 * nu * (n + eff_abs + 1.0) + k * k)
    return (e, -e)


def nu_ground_free(mass_m: float, eff: float) -> float:
    """Quantized slope of the lowest free state: m^2 (|eff| + 3/2).

    Serves the flux scenario as well; eff is the flux-shifted momentum there.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    return mass_m * mass_m * (abs(eff) + 1.5)


def energy_ground_free(mass_m: float, eff: float, k: float) -> tuple[float, float]:
    """Closed-form lowest-state energies: +-m sqrt((2|eff|+3)(|eff|+2) + k^2/m^2).

    Identical to energy_from_lambda(nu_ground_free(m, eff), 1, |eff|, k).
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    s = abs(eff)
    e = mass_m * math.sqrt((2.0 * s + 3.0) * (s + 2.0) + (k * k) / (mass_m * mass_m))
    return (e, -e)


def nu_ground_coulomb(mass_m: float, b: float, eta_abs: float, E: float) -> float:
    """Quantized slope of the lowest Coulomb state at energy E.

    nu = (m^2/2)(2 eta + 3) - 2 m b E (2 eta + 2)/(2 eta + 1)
         + 2 b^2 E^2 / (2 eta + 1);
    collapses to the free m^2(eta + 3/2) when b = 0.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    two_eta = 2.0 * eta_abs
    return (
        0.5 * mass_m * mass_m * (two_eta + 3.0)
        - 2.0 * mass_m * b * E * (two_eta + 2.0) / (two_eta + 1.0)
        + 2.0 * b * b * E * E / (two_eta + 1.0)
    )


def energy_ground_coulomb(
    mass_m: float, b: float, eta_abs: float, k: float
) -> tuple[float, ...]:
    """Both quadratic branches of the lowest Coulomb state energy.

    Eliminating nu between the energy relation (n=1) and the Coulomb slope
    expression gives d E^2 - 2 P E + Q = 0 with

        d = 4 b^2 eta + 8 b^2 - 2 eta - 1,
        P = 2 m b (eta+2)(2 eta+2),
        Q = (2 eta+1) [m^2 (eta+2)(2 eta+3) + k^2].

    With t = P + sign(P) sqrt(P^2 - d Q) its roots are t/d = (P/d)(1 + sqrt(1 - d Q/P^2)),
    returned first, and Q/t, so neither cancels nor divides by b^2 (Goldberg, ACM
    Comput. Surv. 23 (1991) 5); near d = 0 only Q/t is (DEGENERATE_TOL).  Branches
    whose slope is not positive are dropped (the confining picture needs nu > 0).
    b = 0 dispatches to the free closed form.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    if b == 0.0:
        return energy_ground_free(mass_m, eta_abs, k)

    d = 4.0 * b * b * eta_abs + 8.0 * b * b - 2.0 * eta_abs - 1.0
    two_eta = 2.0 * eta_abs
    p = 2.0 * mass_m * b * (eta_abs + 2.0) * (two_eta + 2.0)
    q = (two_eta + 1.0) * (mass_m * mass_m * (eta_abs + 2.0) * (two_eta + 3.0) + k * k)
    disc = p * p - d * q
    if disc < 0.0:
        raise NoRealSolution(
            f"negative discriminant {disc!r} for m={mass_m}, b={b}, eta={eta_abs}, k={k}"
        )
    t = p + math.copysign(math.sqrt(disc), p)
    branches = (q / t,) if abs(d) < DEGENERATE_TOL else (t / d, q / t)
    return tuple(e for e in branches if nu_ground_coulomb(mass_m, b, eta_abs, e) > 0.0)


def _taylor_shift(p: list[int]) -> list[int]:
    """p(t + 1), coefficients lowest first."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _isolate(p: list[int], r: float) -> list[tuple[float, float]]:
    """Finite brackets in alpha = r (1 - y) / (2 sqrt(y)), one per root y in
    (PROOF_WIDTH, 1) of p (integers, lowest first); lo == hi for an exact one
    (module docstring)."""
    # (c, k, q): y in (c, c + 1) / 2^k, q(t) = p((c + t) / 2^k) times a positive factor.
    todo, brackets = [(0, 0, p)], []
    while todo:
        c, k, q = todo.pop()
        if (c + 1) / (1 << k) <= PROOF_WIDTH:  # alpha past top: _pencil_roots keeps no root here
            continue
        a, b = math.ldexp(c, -k), math.ldexp(c + 1, -k)
        lo, hi = (0.5 * r * (1.0 - y) / math.sqrt(y) if y else math.inf for y in (b, a))
        if a and q[0] == 0:  # a root on the left edge (y = 0 is alpha = inf): keep it
            if q[1] == 0:
                raise NoRoots(f"a multiple root at alpha={hi!r}")
            brackets.append((hi, hi))
            q = q[1:]  # q / t
        signs = [v > 0 for v in _taylor_shift(q[::-1]) if v]  # (1 + t)^deg q(1 / (1 + t))
        changes = sum(u != v for u, v in zip(signs, signs[1:]))
        if changes == 1 and a:
            brackets.append((lo, hi))
        elif changes:  # more than one root, or one whose alpha bracket is not yet finite
            if hi - lo <= PROOF_WIDTH * max(lo, 1.0):  # the proof could not tell them apart
                raise NoRoots(f"a multiple root, or two too close to prove, in alpha [{lo!r}, {hi!r}]")
            left = [v << (len(q) - 1 - i) for i, v in enumerate(q)]
            todo += [(2 * c, k + 1, left), (2 * c + 1, k + 1, _taylor_shift(left))]
    return brackets


def _pencil_roots(n: int, d: list, sup: list, sub: list, ca: float, r: float, sturm, top) -> list:
    """The alpha roots below top of a c > 0, kappa >= 1 branch, ascending (module docstring)."""
    lead, const = [ca + r * dj for dj in d], [ca - r * dj for dj in d]
    # lead[-1] is the largest entry of L, and K0 is smaller in size.  r = 0 (B = inf)
    # would map every y to alpha = 0 or inf, so no bracket could isolate a root.
    if not (math.isfinite(lead[-1]) and r > 0.0):
        raise NoRoots(f"the pencil at c sqrt(A)={ca!r}, r={r!r} is not finite, or has r = 0")
    # One power of two z makes every entry an integer; det P gains a factor z^(n+1).
    ratios = [list(map(float.as_integer_ratio, w)) for w in (lead, const, sup, sub)]
    z = max(v for w in ratios for _, v in w)
    lead, const, sup, sub = ([u * (z // v) for u, v in w] for w in ratios)
    prev, det = [], [1]  # det P(y) by the three-term recurrence
    for j in range(n + 1):
        off = 4 * sup[j - 1] * sub[j - 1] if j else 0
        terms = zip(det + [0], [0] + det, [0] + prev + [0])
        prev, det = det, [const[j] * u + lead[j] * v - off * w for u, v, w in terms]
    content = math.gcd(*det)  # nonzero: the leading coefficient is prod L_j > 0
    brackets = _isolate([v // content for v in det], r)
    roots, edges = [lo for lo, hi in brackets if lo == hi < top], []
    count = cache(lambda x: sturm(x)[0])  # adjacent brackets share an edge
    for lo, hi in brackets:
        # The count on a root reads either side, so an edge there moves in by the proof's width.
        lo = lo + PROOF_WIDTH * max(lo, 1.0) if lo in roots else lo
        hi = min(hi - PROOF_WIDTH * max(hi, 1.0) if hi in roots else hi, top)
        if lo < hi:  # a bracket whose count proves no root gives none; a lost one fails the sum
            edges.append((lo, hi, count(lo), count(hi)))
    return sorted(roots + find_steps(sturm, edges, NEWTON_RTOL, range(n + 1)))


def _alpha_roots(n: int, s: float, c: float, big_a: float, big_b: float) -> list[float]:
    """The roots alpha > 0 of a_{n+1}(alpha) = 0 at mu = c sqrt(A + B alpha^2),
    ascending, each proven by a step of the eigenvalue count (module docstring);
    NoRoots names a root that is not, or a lost one."""
    d = [j + s + 0.5 for j in range(n + 1)]
    sup = [(j + 1.0) * (j + 1.0 + 2.0 * s) for j in range(n)]  # T[j, j+1]
    sub = [2.0 * (n - j) for j in range(n)]  # T[j+1, j]
    # Off-diagonal of S ~ D^{-1} T; S(mu) = S_0 + mu D^{-1} has diagonal mu / d.
    off = [math.sqrt(sup[j] * sub[j] / (d[j] * d[j + 1])) for j in range(n)]
    ca = c * math.sqrt(big_a)
    diag0 = [ca / dj for dj in d]

    def diag(alpha: float) -> tuple[list, list]:  # S(mu(alpha))'s diagonal and its slope
        root = math.sqrt(big_a + big_b * alpha * alpha)
        mu, dmu = c * root, c * big_b * alpha / root
        return [mu / dj for dj in d], [dmu / dj - 1.0 for dj in d]

    constant = c == 0.0 or big_b == 0.0
    sturm = counter(diag0 if constant else diag, off)

    n_lo = sturm(PROOF_WIDTH)[0]
    # Constant mu is tested first: at B = inf, c = 0 would make kappa NaN.
    if constant or c < 0.0 or abs(c) * math.sqrt(big_b) < d[0]:  # one step per root
        kappa = c * math.sqrt(big_b) / d[0] if c > 0.0 else 0.0
        top = 2.0 * max(gershgorin(diag0, off)[1], 1.0) / (1.0 - kappa)  # count(top) = n + 1
        if not math.isfinite(top):
            raise NoRoots(f"the eigenvalue count's bracket top={top!r} is not finite")
        roots = find_steps(sturm, [(PROOF_WIDTH, top, n_lo, n + 1)], NEWTON_RTOL, range(n + 1))
    else:
        r = math.sqrt(big_a / big_b)
        top = r * (1.0 - PROOF_WIDTH) / (2.0 * math.sqrt(PROOF_WIDTH))  # alpha at y = PROOF_WIDTH
        roots = _pencil_roots(n, d, sup, sub, ca, r, sturm, top)

    steps, total = 0, sturm(top)[0] - n_lo
    for alpha in roots:
        delta = PROOF_WIDTH * max(alpha, 1.0)
        step = sturm(alpha + delta)[0] - sturm(alpha - delta)[0]
        if abs(step) != 1:
            raise NoRoots(f"the eigenvalue count does not step at alpha={alpha!r}: not a root")
        steps += step
    if steps != total:
        raise NoRoots(f"roots {roots} make {steps} of the eigenvalue count's {total} steps")
    return roots


def solve_general_n(
    qn: QuantumNumbers, mass_m: float, *, chi: float, b: float = 0.0, flux: float = 0.0
) -> list[SpectrumPoint]:
    """All bound states of radial index qn.n on the background of torsion chi,
    Coulomb strength b and flux ratio flux = q*Phi_B/(2 pi), which enter as
    s = coulomb_eta(l - chi*k + flux, b) and mu.

    The slope constraint is solved as an eigenproblem in alpha = 2m/sqrt(nu)
    (see the module docstring) for every root alpha > 0 that an eigenvalue
    count proves; an unproven or lost root, or a cell with no root, raises
    NoRoots.  Each root runs the recurrence once through a_{n+1}: the state
    keeps a_0..a_n, and a_{n+1} gives trunc_rel, a diagnostic that gates only
    on overflow: a non-finite E or trunc_rel raises NoRoots.  The nu > 0
    states are returned sorted ascending in nu (the physics does not single
    one out for n >= 2).  At b != 0 the +E and -E branches are solved
    separately since the constraint sees the sign of E through mu; at b = 0 it
    is sign-blind and each root carries the full +-E pair.
    """
    if not mass_m > 0.0:
        raise ValueError(f"mass must be positive, got {mass_m}")
    n = qn.n
    eff = effective_angular_momentum(qn.l, qn.k, chi, flux)
    if not math.isfinite(eff):  # chi*k overflowed; every matrix below would be non-finite
        raise OverflowError(f"effective angular momentum {eff!r} is not finite")
    eff_abs = coulomb_eta(eff, b)  # |eff| at b = 0
    branch_signs: tuple[int | None, ...] = (1, -1) if b != 0.0 else (None,)

    big_a = 2.0 * (n + eff_abs + 1.0)
    big_b = qn.k * qn.k / (4.0 * mass_m * mass_m)
    points: list[SpectrumPoint] = []
    for sign in branch_signs:
        c = 2.0 * b * (1 if sign is None else sign)
        for alpha_root in _alpha_roots(n, eff_abs, c, big_a, big_b):
            nu = 4.0 * mass_m * mass_m / (alpha_root * alpha_root)
            e_pair = energy_from_lambda(nu, n, eff_abs, qn.k)
            # The pair where b = 0 leaves the constraint sign-blind, else the branch's own E.
            energies = e_pair if sign is None else (e_pair[0] if sign > 0 else e_pair[1],)
            # The polynomial is built from the parameters that the printed values rebuild.
            pt = SpectrumPoint(qn, eff_abs, nu, energies, (), sign, math.nan)
            a = build_coefficients(pt.params(mass_m, b), n + 1)
            coeffs = a[: n + 1]
            trunc_rel = abs(a[n + 1]) / max(map(abs, coeffs))
            if not (math.isfinite(energies[0]) and math.isfinite(trunc_rel)):
                raise NoRoots(f"non-finite state at alpha={alpha_root!r}: E = {energies[0]!r}")
            points.append(pt._replace(coeffs=coeffs, trunc_rel=trunc_rel))

    if not points:
        raise NoRoots(f"no nu > 0 root of the order-{n} truncation condition")
    points.sort(key=lambda p: (p.nu_solved, -(p.branch or 0)))
    return points
