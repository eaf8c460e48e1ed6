"""Domain types of the radial problem.

Natural units (hbar = c = 1) throughout.  The particle carries a
position-dependent mass m(rho) = m + nu*rho, i.e. a linear confining scalar
potential of slope nu, on a background of three plain numbers: the torsion
chi of the dislocation (chi = 0 is flat Minkowski space), a signed Coulomb
strength b, and a magnetic flux as its ratio q*Phi_B/(2 pi) to the flux
quantum.  chi and the flux enter the radial problem only through the effective
angular momentum l - chi*k + flux; b = 0 and flux = 0 recover the free case.

After substituting xi = sqrt(nu)*rho, the radial equation is governed by four
dimensionless numbers collected in HeunParams:

    alpha = 2 m / sqrt(nu)
    beta  = (E^2 - m^2 - k^2) / nu
    mu    = 2 b E / sqrt(nu)
    nu_abs = |effective angular momentum| (or its Coulomb-shifted modulus)

SpectrumPoint.params builds a state's HeunParams, beta as 2(n+s+1) - alpha^2/4
from its printed slope; on a state that equals (E^2 - m^2 - k^2)/nu.
"""

from __future__ import annotations

import math
from collections import namedtuple

class QuantumNumbers(namedtuple("QuantumNumbers", "n l k")):
    """Radial index n >= 1, integer angular momentum l, real wavenumber k."""

    __slots__ = ()

    def __new__(cls, n: int, l: int, k: float) -> "QuantumNumbers":
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"radial index n must be an integer >= 1, got {n!r}")
        if not isinstance(l, int):
            raise ValueError(f"angular momentum l must be an integer, got {l!r}")
        return tuple.__new__(cls, (n, l, k))


class HeunParams(namedtuple("HeunParams", "nu_abs alpha beta mu")):
    """Dimensionless parameters of the radial equation in xi."""

    __slots__ = ()

    def __new__(cls, nu_abs: float, alpha: float, beta: float, mu: float) -> "HeunParams":
        if nu_abs < 0.0:
            raise ValueError(f"nu_abs must be >= 0, got {nu_abs}")
        if alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        return tuple.__new__(cls, (nu_abs, alpha, beta, mu))


def effective_angular_momentum(l: int, k: float, chi: float, flux: float) -> float:
    """Angular momentum as shifted by torsion and flux: l - chi*k + flux.

    Reduces to l - chi*k at zero flux and to plain l on a flat background.
    Affine in each argument; adding one flux quantum (flux -> flux + 1) is
    the same as l -> l+1.
    """
    return l - chi * k + flux


def coulomb_eta(gamma_eff: float, b: float) -> float:
    """Coulomb-shifted modulus sqrt(gamma_eff^2 + b^2); equals |gamma_eff| at b=0."""
    return math.hypot(gamma_eff, b)

