"""Power-series engine for the radial equation.

Factoring the asymptotic envelope out of the radial solution,

    R(xi) = exp(-xi^2/2) * exp(-alpha*xi/2) * xi^s * G(xi),      s = nu_abs,

leaves a second-order equation for G whose power-series coefficients
G = sum a_k xi^k obey a three-term recurrence:

    a_0 = 1
    a_1 = tau / (1 + 2s)
    a_{k+2} = [alpha*(k+1) + tau] a_{k+1} / [(k+2)(k+2+2s)]
              - [lam - 2k] a_k / [(k+2)(k+2+2s)]

with

    lam = beta + alpha^2/4 - 2 - 2s
    tau = (alpha/2)(2s+1) - mu.

The free case is mu = 0 (then a_1 = alpha/2).  The series terminates as a
degree-n polynomial exactly when lam = 2n and a_{n+1} = 0 hold together; the
recurrence then forces a_{n+2} = 0 as well and the whole tail collapses.
That pair of conditions is what the quantization module solves.

The recurrence runs on plain floats, so building a series needs no numpy;
only evaluate_G and evaluate_R, which take arrays, import it.  It runs as far
as it is read: the solver reads a_0..a_{n+1}, and the tail through a_{n_max}
is built on the first read of the whole series.
"""

from __future__ import annotations

from collections import namedtuple

from .core import HeunParams

DEFAULT_N_MAX = 64


def lambda_bar(params: HeunParams) -> float:
    """Constant term of the G-equation: beta + alpha^2/4 - 2 - 2*nu_abs."""
    return params.beta + 0.25 * params.alpha**2 - 2.0 - 2.0 * params.nu_abs


def tau_bar(params: HeunParams) -> float:
    """1/xi coefficient of the G-equation: (alpha/2)(2*nu_abs+1) - mu."""
    return 0.5 * params.alpha * (2.0 * params.nu_abs + 1.0) - params.mu


class SeriesCoefficients:
    """Coefficients a_0..a_N of G, normalized to a_0 = 1, N = n_max.

    coeffs may hold fewer terms than N + 1: the recurrence then continues
    them as far as they are read.  head(j) runs it through a_j, and the first
    read of coeffs through a_N.  Each step is the same float operations in
    the same order, so the series is bitwise that of a single pass however
    it was read.
    """

    __slots__ = ("_a", "n_max", "params", "lam", "tau")

    def __init__(
        self, coeffs, params: HeunParams, lam: float, tau: float, n_max: int | None = None
    ) -> None:
        self.n_max = len(coeffs) - 1 if n_max is None else n_max
        self._a = list(coeffs) if len(coeffs) <= self.n_max else coeffs
        self.params, self.lam, self.tau = params, lam, tau

    def head(self, order: int) -> tuple[float, ...]:
        """a_0..a_order, running the recurrence no further than a_order."""
        a = self._a
        if len(a) <= order:
            alpha, s, lam, tau = self.params.alpha, self.params.nu_abs, self.lam, self.tau
            for k in range(len(a) - 2, min(order, self.n_max) - 1):
                denom = (k + 2.0) * (k + 2.0 + 2.0 * s)
                a.append(((alpha * (k + 1.0) + tau) * a[k + 1] - (lam - 2.0 * k) * a[k]) / denom)
        return tuple(a[: order + 1])

    @property
    def coeffs(self) -> tuple[float, ...]:
        if len(self._a) <= self.n_max:
            self._a = self.head(self.n_max)
        return self._a

    def __eq__(self, other):
        if type(other) is not SeriesCoefficients:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "SeriesCoefficients(coeffs=%r, params=%r, lam=%r, tau=%r)" % self._key()

    def _key(self) -> tuple:
        return (self.coeffs, self.params, self.lam, self.tau)


class RadialWavefunction(
    namedtuple("RadialWavefunction", "coefficients alpha nu_abs truncation_order", defaults=(None,))
):
    """Envelope times series:  R(xi) = e^{-xi^2/2} e^{-alpha xi/2} xi^{nu_abs} G(xi).

    When truncation_order = n is set, the series is known to terminate at
    degree n and evaluation uses only a_0..a_n.  The raw recurrence tail
    beyond n is numerically zero but re-amplifies its own round-off, so
    carrying it would pollute high-degree evaluations.
    """

    __slots__ = ()

    def polynomial_coeffs(self) -> tuple[float, ...]:
        if self.truncation_order is not None:
            return self.coefficients.head(self.truncation_order)
        return self.coefficients.coeffs


def build_coefficients(params: HeunParams, n_max: int = DEFAULT_N_MAX) -> SeriesCoefficients:
    """The series through a_{n_max}, each term built when it is first read.

    The denominators (k+2)(k+2+2*nu_abs) are strictly positive, so the
    recurrence never degenerates.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lam = lambda_bar(params)
    tau = tau_bar(params)
    return SeriesCoefficients((1.0, tau / (1.0 + 2.0 * params.nu_abs)), params, lam, tau, n_max)


def evaluate_G(coeffs: SeriesCoefficients, xi):
    """Partial sum of the series at xi (scalar or array), xi >= 0.

    When the truncation conditions hold this partial sum is the exact
    polynomial solution.
    """
    import numpy as np

    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0):
        raise ValueError("xi must be >= 0")
    out = np.polynomial.polynomial.polyval(xi, coeffs.coeffs)
    return float(out) if out.ndim == 0 else out


def evaluate_R(wf: RadialWavefunction, xi):
    """Full radial amplitude at xi (scalar or array), xi >= 0.

    R(0) = 0 for nu_abs > 0 and R(0) = G(0) for nu_abs = 0.
    """
    import numpy as np

    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0):
        raise ValueError("xi must be >= 0")
    a = wf.polynomial_coeffs()
    g = np.polynomial.polynomial.polyval(xi, a)
    envelope = np.exp(-0.5 * xi * xi - 0.5 * wf.alpha * xi)
    # 0.0**0 == 1.0 covers the nu_abs = 0 origin case.
    out = envelope * xi**wf.nu_abs * g
    return float(out) if out.ndim == 0 else out
