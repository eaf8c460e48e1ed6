"""Persistent currents from the flux dependence of the spectrum.

A bound state's equilibrium current is the flux derivative of its energy,
I = -dE/dPhi_B.  For the lowest state the derivative has a closed form; for
anything else (and as an oracle for the closed form) a central difference of
a caller-supplied flux -> energy map is used.  Energies depend on the flux
only through |sigma|, sigma = l - chi k + q Phi_B/(2 pi), so every spectrum
has a kink where sigma crosses zero.  The caller knows sigma, so the caller
decides whether a difference stencil reaches the kink.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import UndefinedAtZeroFlux

ZERO_SIGMA_TOL = 1e-14


def persistent_current_ground(
    mass_m: float, k: float, sigma: float, q: float, branch: int
) -> float:
    """Closed-form current of the lowest state.

        I = -branch * (q / 4 pi) * sign(sigma) * m (4|sigma|+7)
            / sqrt((2|sigma|+3)(|sigma|+2) + k^2/m^2)

    branch selects which member of the +-E pair is differentiated (+1 for the
    positive-energy state).  sigma = 0 sits on the |sigma| kink where the
    sign factor is undefined.
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    if abs(sigma) < ZERO_SIGMA_TOL:
        raise UndefinedAtZeroFlux(f"current undefined at sigma = {sigma!r}")
    s = abs(sigma)
    sgn = 1.0 if sigma > 0.0 else -1.0
    return (
        -branch
        * (q / (4.0 * math.pi))
        * sgn
        * mass_m
        * (4.0 * s + 7.0)
        / math.sqrt((2.0 * s + 3.0) * (s + 2.0) + (k * k) / (mass_m * mass_m))
    )


def persistent_current_numeric(
    spectrum_fn: Callable[[float], float], phi_B: float, step: float
) -> float:
    """Central difference -[E(phi+h) - E(phi-h)] / (2h) of a flux -> energy map.

    Two evaluations, at phi_B + step and phi_B - step.  The difference is the
    current only where E is smooth on that stencil: the caller must keep it
    off the |sigma| kink, i.e. sigma must not reach zero on it.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    e_plus = spectrum_fn(phi_B + step)
    e_minus = spectrum_fn(phi_B - step)
    return -(e_plus - e_minus) / (2.0 * step)
