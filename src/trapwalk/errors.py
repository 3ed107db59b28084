"""Exception types shared across the package."""

__all__ = [
    "TrapwalkError",
    "NotUnitaryError",
    "ParameterDomainError",
    "NotTrappingError",
    "DegenerateMinorError",
    "KernelInconsistencyError",
]


class TrapwalkError(Exception):
    """Base class for all package-specific errors."""


class NotUnitaryError(TrapwalkError, ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class ParameterDomainError(TrapwalkError, ValueError):
    """A coin-family parameter lies outside its admissible range."""


class NotTrappingError(TrapwalkError, ValueError):
    """An operation requiring a trapping coin received a non-trapping one."""


class DegenerateMinorError(TrapwalkError, ArithmeticError):
    """A 3x3 minor needed by the adjugate construction vanishes identically."""


class KernelInconsistencyError(TrapwalkError, ArithmeticError):
    """Kernel extraction found no usable solution; signals a tolerance failure."""
