"""Persistent currents from the flux dependence of the spectrum.

A bound state's equilibrium current is the flux derivative of its energy,
I = -dE/dPhi_B.  For the lowest state the derivative has a closed form; for
anything else (and as an oracle for the closed form) a central difference of
a caller-supplied flux -> energy map is used.  Energies depend on the flux
only through |sigma|, sigma = l - chi k + q Phi_B/(2 pi), so every spectrum
has a kink where sigma crosses zero; the numeric derivative refuses to
straddle it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .core import TWO_PI
from .errors import KinkDetected, UndefinedAtZeroFlux

ZERO_SIGMA_TOL = 1e-14

# Default step, 1e-5 in q*Phi_B/2pi units for unit charge.
DEFAULT_FLUX_STEP = TWO_PI * 1e-5

# One-sided slopes across the stencil differing by more than this relative
# jump are treated as a kink.
KINK_SLOPE_JUMP = 0.02


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
    spectrum_fn: Callable[[float], float],
    phi_B: float,
    step: float | None = None,
) -> float:
    """Central difference -[E(phi+h) - E(phi-h)] / (2h) of a flux -> energy map.

    The one-sided slopes across the stencil are compared first; a relative
    jump above 2% raises KinkDetected (the |sigma| kink produces an O(1)
    jump, a smooth spectrum an O(h) one).  The detector sees any slope
    discontinuity at resolution h, and cannot see a kink sitting in the
    outer ~2% of the stencil; callers wanting certainty should keep
    |sigma| > 10*step away from zero, in q*Phi/2pi units.
    """
    h = DEFAULT_FLUX_STEP if step is None else step
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    e_plus = spectrum_fn(phi_B + h)
    e_minus = spectrum_fn(phi_B - h)
    e_mid = spectrum_fn(phi_B)

    slope_fwd = (e_plus - e_mid) / h
    slope_bwd = (e_mid - e_minus) / h
    jump = abs(slope_fwd - slope_bwd)
    scale = abs(slope_fwd) + abs(slope_bwd)
    eps = sys.float_info.epsilon
    noise_floor = 64.0 * eps * max(abs(e_plus), abs(e_minus), abs(e_mid)) / h
    if jump > noise_floor and jump > KINK_SLOPE_JUMP * scale:
        raise KinkDetected(
            f"one-sided slopes {slope_fwd!r} / {slope_bwd!r} disagree across "
            f"the stencil at phi_B = {phi_B!r} (step {h!r})"
        )
    return -(e_plus - e_minus) / (2.0 * h)
