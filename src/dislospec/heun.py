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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HeunParams
from .errors import LambdaMismatch

DEFAULT_N_MAX = 64

# lam must sit within this distance of 2n before truncation_residual is meaningful.
LAMBDA_TOL = 1e-8


def lambda_bar(params: HeunParams) -> float:
    """Constant term of the G-equation: beta + alpha^2/4 - 2 - 2*nu_abs."""
    return params.beta + 0.25 * params.alpha**2 - 2.0 - 2.0 * params.nu_abs


def tau_bar(params: HeunParams) -> float:
    """1/xi coefficient of the G-equation: (alpha/2)(2*nu_abs+1) - mu."""
    return 0.5 * params.alpha * (2.0 * params.nu_abs + 1.0) - params.mu


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients a_0..a_N of G, normalized to a_0 = 1."""

    coeffs: np.ndarray
    params: HeunParams
    lam: float
    tau: float

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RadialWavefunction:
    """Envelope times series:  R(xi) = e^{-xi^2/2} e^{-alpha xi/2} xi^{nu_abs} G(xi).

    When truncation_order = n is set, the series is known to terminate at
    degree n and evaluation uses only a_0..a_n.  The raw recurrence tail
    beyond n is numerically zero but re-amplifies its own round-off, so
    carrying it would pollute high-degree evaluations.
    """

    coefficients: SeriesCoefficients
    alpha: float
    nu_abs: float
    truncation_order: int | None = None

    def polynomial_coeffs(self) -> np.ndarray:
        a = self.coefficients.coeffs
        if self.truncation_order is not None:
            return a[: self.truncation_order + 1]
        return a


def build_coefficients(params: HeunParams, n_max: int = DEFAULT_N_MAX) -> SeriesCoefficients:
    """Run the recurrence in ascending order through a_{n_max}.

    The denominators (k+2)(k+2+2*nu_abs) are strictly positive, so the
    recurrence never degenerates.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lam = lambda_bar(params)
    tau = tau_bar(params)
    s = params.nu_abs
    a = np.zeros(n_max + 1)
    a[0] = 1.0
    a[1] = tau / (1.0 + 2.0 * s)
    for k in range(n_max - 1):
        denom = (k + 2.0) * (k + 2.0 + 2.0 * s)
        a[k + 2] = ((params.alpha * (k + 1.0) + tau) * a[k + 1] - (lam - 2.0 * k) * a[k]) / denom
    return SeriesCoefficients(coeffs=a, params=params, lam=lam, tau=tau)


def evaluate_G(coeffs: SeriesCoefficients, xi):
    """Partial sum of the series at xi (scalar or array), xi >= 0.

    When the truncation conditions hold this partial sum is the exact
    polynomial solution.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0):
        raise ValueError("xi must be >= 0")
    out = np.polynomial.polynomial.polyval(xi, coeffs.coeffs)
    return float(out) if out.ndim == 0 else out


def evaluate_R(wf: RadialWavefunction, xi):
    """Full radial amplitude at xi (scalar or array), xi >= 0.

    R(0) = 0 for nu_abs > 0 and R(0) = G(0) for nu_abs = 0.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0):
        raise ValueError("xi must be >= 0")
    a = wf.polynomial_coeffs()
    g = np.polynomial.polynomial.polyval(xi, a)
    envelope = np.exp(-0.5 * xi * xi - 0.5 * wf.alpha * xi)
    # 0.0**0 == 1.0 covers the nu_abs = 0 origin case.
    out = envelope * xi**wf.nu_abs * g
    return float(out) if out.ndim == 0 else out


def truncation_residual(params: HeunParams, n: int) -> float:
    """The coefficient a_{n+1}, which must vanish for a degree-n polynomial.

    The caller is responsible for having already fixed lam = 2n through the
    energy relation; LambdaMismatch flags a caller bug, not a physics result.
    """
    if n < 1:
        raise ValueError(f"truncation order n must be >= 1, got {n}")
    lam = lambda_bar(params)
    if abs(lam - 2.0 * n) > LAMBDA_TOL:
        raise LambdaMismatch(
            f"lambda-bar = {lam!r} is not 2n = {2.0 * n!r}; "
            "fix the energy relation before testing truncation"
        )
    return float(build_coefficients(params, n_max=n + 1).coeffs[n + 1])
