"""Exception types shared across the package."""


class DislospecError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveSlope(DislospecError):
    """The confining slope must be positive wherever xi = sqrt(nu)*rho is formed."""


class LambdaMismatch(DislospecError):
    """Series truncation was requested at an order inconsistent with the energy relation."""


class NoRealSolution(DislospecError):
    """The closed-form ground-state energy has a negative radicand for these parameters."""


class DegenerateDenominator(DislospecError):
    """The quadratic energy branch formula degenerates (leading coefficient ~ 0)."""


class NoRoots(DislospecError):
    """No positive-slope root of the truncation condition in the search window."""


class UndefinedAtZeroFlux(DislospecError):
    """The analytic current carries sign(sigma), undefined where sigma vanishes."""
