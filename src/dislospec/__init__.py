"""Bound-state spectra, quantization constraints, and persistent currents of a
linearly confined relativistic scalar on a dislocated background, with
optional Coulomb coupling and magnetic flux."""

from .core import (
    AB_FLUX,
    COULOMB,
    FREE,
    Couplings,
    DefectGeometry,
    HeunParams,
    MassProfile,
    QuantumNumbers,
    coulomb_eta,
    effective_angular_momentum,
    heun_params,
)
from .errors import (
    DegenerateDenominator,
    DislospecError,
    LambdaMismatch,
    NonPositiveSlope,
    NoRealSolution,
    NoRoots,
    UndefinedAtZeroFlux,
)
from .heun import (
    RadialWavefunction,
    SeriesCoefficients,
    build_coefficients,
    evaluate_G,
    evaluate_R,
    truncation_residual,
)
from .observables import (
    persistent_current_ground,
    persistent_current_numeric,
)
from .oracle import (
    RadialGrid,
    default_fd_grid,
    fd_eigensolve_free,
    normalization,
    ode_residual,
)
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
    "AB_FLUX",
    "COULOMB",
    "FREE",
    "Couplings",
    "DefectGeometry",
    "DegenerateDenominator",
    "DislospecError",
    "HeunParams",
    "LambdaMismatch",
    "MassProfile",
    "NoRealSolution",
    "NoRoots",
    "NonPositiveSlope",
    "QuantumNumbers",
    "RadialGrid",
    "RadialWavefunction",
    "SeriesCoefficients",
    "SpectrumPoint",
    "UndefinedAtZeroFlux",
    "build_coefficients",
    "coulomb_eta",
    "default_fd_grid",
    "effective_angular_momentum",
    "energy_from_lambda",
    "energy_ground_coulomb",
    "energy_ground_free",
    "evaluate_G",
    "evaluate_R",
    "fd_eigensolve_free",
    "heun_params",
    "normalization",
    "nu_ground_coulomb",
    "nu_ground_free",
    "ode_residual",
    "persistent_current_ground",
    "persistent_current_numeric",
    "solve_general_n",
    "truncation_residual",
]
