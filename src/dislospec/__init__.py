"""Bound-state spectra, quantization constraints, and persistent currents of a
linearly confined relativistic scalar on a dislocated background, with
optional Coulomb coupling and magnetic flux."""

from importlib import import_module

from .core import HeunParams, QuantumNumbers, coulomb_eta, effective_angular_momentum
from .errors import (
    DislospecError,
    NonPositiveSlope,
    NoRealSolution,
    NoRoots,
    UndefinedAtZeroFlux,
)
from .heun import build_coefficients
from .quantization import (
    SpectrumPoint,
    energy_from_lambda,
    energy_ground_coulomb,
    energy_ground_free,
    nu_ground_coulomb,
    nu_ground_free,
    solve_general_n,
)

__version__ = "0.1.0"

__all__ = [
    "DislospecError",
    "HeunParams",
    "NoRealSolution",
    "NoRoots",
    "NonPositiveSlope",
    "QuantumNumbers",
    "RadialGrid",
    "SpectrumPoint",
    "UndefinedAtZeroFlux",
    "build_coefficients",
    "coulomb_eta",
    "effective_angular_momentum",
    "energy_from_lambda",
    "energy_ground_coulomb",
    "energy_ground_free",
    "fd_eigensolve_free",
    "nu_ground_coulomb",
    "nu_ground_free",
    "ode_residual",
    "persistent_current_ground",
    "persistent_current_numeric",
    "solve_general_n",
]

# The oracles' names load their module on first access (PEP 562), so importing
# the package, or a CLI call that prints no oracle column, does not compile them.
_LAZY = {
    "RadialGrid": "oracle",
    "fd_eigensolve_free": "oracle",
    "ode_residual": "oracle",
    "persistent_current_ground": "observables",
    "persistent_current_numeric": "observables",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
