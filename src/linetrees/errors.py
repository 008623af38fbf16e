"""Exception types shared across the package."""


class LineTreesError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2  # the command line's exit status: malformed input


class DomainError(LineTreesError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegralityViolation(LineTreesError):
    """An exact division left a remainder. Counting formulas divide last and
    assert divisibility, so this signals an implementation bug."""
    exit_code = 4


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
    exit_code = 3


class IndexOutOfRange(LineTreesError):
    """Unranking index is not below the number of trees with the profile."""


class RootFindingFailure(LineTreesError):
    """The roots of Q missed the fixed bounds of ``roots``, or overflowed."""
    exit_code = 4


class DegenerateError(LineTreesError):
    """``roots.roots_all`` was given a polynomial Q that is constant once its
    exactly-zero leading coefficients are deflated, so Q has no roots to find."""
