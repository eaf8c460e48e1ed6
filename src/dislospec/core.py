"""Domain types and dimensionless parameter assembly.

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
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NonPositiveSlope

# Scenario tags used by the solver and CLI.
FREE = "free"
COULOMB = "coulomb"
AB_FLUX = "ab"


class MassProfile(namedtuple("MassProfile", "m nu")):
    """Rest mass m > 0 and linear slope nu of m(rho) = m + nu*rho.

    nu <= 0 is representable (useful for error-path tests) but is rejected
    at every boundary where xi = sqrt(nu)*rho would be formed.
    """

    __slots__ = ()

    def __new__(cls, m: float, nu: float) -> "MassProfile":
        if not m > 0.0:
            raise ValueError(f"rest mass must be positive, got {m}")
        return tuple.__new__(cls, (m, nu))

    def require_confining(self) -> None:
        if not self.nu > 0.0:
            raise NonPositiveSlope(
                f"slope nu must be positive to form xi = sqrt(nu)*rho, got {self.nu}"
            )


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


def heun_params(
    mass: MassProfile, E: float, k: float, b: float, eff_abs: float
) -> HeunParams:
    """Assemble the dimensionless radial parameters at energy E.

    Raises NonPositiveSlope if mass.nu <= 0 (the xi substitution needs nu > 0).
    mu vanishes identically when b = 0, embedding the free case.
    """
    mass.require_confining()
    sqrt_nu = math.sqrt(mass.nu)
    return HeunParams(
        nu_abs=eff_abs,
        alpha=2.0 * mass.m / sqrt_nu,
        beta=(E * E - mass.m * mass.m - k * k) / mass.nu,
        mu=2.0 * b * E / sqrt_nu,
    )
