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
only evaluate_R, which takes arrays, imports it.  The oracles evaluate G by
their own Horner pass.  A solved state carries a_0..a_{n+1}, the terms of
its truncation_residual diagnostic; verify's truncation cascade builds its
own series through a_{max(64, n+1)}.
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


class SeriesCoefficients(namedtuple("SeriesCoefficients", "coeffs params")):
    """Coefficients a_0..a_N of G, normalized to a_0 = 1."""

    __slots__ = ()


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
            return self.coefficients.coeffs[: self.truncation_order + 1]
        return self.coefficients.coeffs


def build_coefficients(params: HeunParams, n_max: int = DEFAULT_N_MAX) -> SeriesCoefficients:
    """The series a_0..a_{n_max}, run through the recurrence in one pass.

    The denominators (k+2)(k+2+2*nu_abs) are strictly positive, so the
    recurrence never degenerates.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lam = lambda_bar(params)
    tau = tau_bar(params)
    alpha, s = params.alpha, params.nu_abs
    a = [1.0, tau / (1.0 + 2.0 * s)]
    for k in range(n_max - 1):
        denom = (k + 2.0) * (k + 2.0 + 2.0 * s)
        a.append(((alpha * (k + 1.0) + tau) * a[k + 1] - (lam - 2.0 * k) * a[k]) / denom)
    return SeriesCoefficients(tuple(a), params)


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
