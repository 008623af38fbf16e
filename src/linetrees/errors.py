"""Exception types shared across the package."""


class LineTreesError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LineTreesError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegralityViolation(LineTreesError):
    """An exact division left a remainder. Counting formulas divide last and
    assert divisibility, so this signals an implementation bug."""


class ParseError(LineTreesError):
    """Malformed canonical tree encoding; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ColorError(LineTreesError):
    """Edge color out of range or repeated among one vertex's children."""


class ColorOrderError(ColorError):
    """Children of an encoded vertex are not in ascending color order."""


class BudgetExceeded(LineTreesError):
    """A CLI input exceeds a cap of the limits table."""


class IndexOutOfRange(LineTreesError):
    """Unranking index is not below the number of trees with the profile."""


class RootFindingFailure(LineTreesError):
    """Root residuals could not be brought under the requested tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class DegenerateError(LineTreesError):
    """The polynomial degenerates (vanishing coefficient) where a closed
    formula requires otherwise."""
