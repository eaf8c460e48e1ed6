"""Exception types shared across the package."""


class DislospecError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveSlope(DislospecError):
    """The confining slope must be positive wherever xi = sqrt(nu)*rho is formed."""


class NoRealSolution(DislospecError):
    """The closed-form ground-state energy's quadratic has a negative discriminant."""


class NoRoots(DislospecError):
    """No root alpha > 0 of the truncation condition that the count of
    eigenvalues of S(mu(alpha)) below alpha proves; a root that this count
    does not prove, a step of it that no root accounts for, or a multiple
    root (or two the proof cannot separate); or a state whose E or relative
    a_{n+1} is not finite."""


class UndefinedAtZeroFlux(DislospecError):
    """The analytic current carries sign(sigma), undefined where sigma vanishes."""
