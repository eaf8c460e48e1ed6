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

The recurrence runs on plain floats, so building a series needs no numpy,
and the oracles evaluate G by their own Horner pass.  A solved state holds
a_0..a_n, and its printed slope rebuilds its parameters, its energy only mu; the
solver reads its trunc_rel diagnostic from a_{n+1} before it drops that term, and
verify's truncation cascade builds its own series through a_{max(64, n+1)}.
"""

from __future__ import annotations

from .core import HeunParams


def lambda_bar(params: HeunParams) -> float:
    """Constant term of the G-equation: beta + alpha^2/4 - 2 - 2*nu_abs."""
    return params.beta + 0.25 * params.alpha**2 - 2.0 - 2.0 * params.nu_abs


def tau_bar(params: HeunParams) -> float:
    """1/xi coefficient of the G-equation: (alpha/2)(2*nu_abs+1) - mu."""
    return 0.5 * params.alpha * (2.0 * params.nu_abs + 1.0) - params.mu


def build_coefficients(params: HeunParams, n_max: int) -> tuple[float, ...]:
    """The series a_0..a_{n_max} of G, normalized to a_0 = 1, run through the
    recurrence in one pass.

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
    return tuple(a)
