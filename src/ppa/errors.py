"""Shared exception types."""


class PpaError(ValueError):
    """Base class for all contract violations raised by this package."""


class VariableSetError(PpaError):
    """Operands live over different variable sets."""


class PolynomialGradeError(PpaError):
    """An operation that requires nonnegative integer exponents received a
    Laurent/Puiseux term."""


class SingularMapError(PpaError):
    """Monomial change of variables has a non-invertible exponent matrix."""


class DomainError(PpaError):
    """Evaluation outside the domain of a fractional power, or an exact
    operation that would leave the rationals."""


class ArityError(PpaError):
    """Wrong number of Casimirs or bracket arguments."""


class ParityError(PpaError):
    """A check that needs even corank was asked about an odd one."""


class DegenerateCasimirError(PpaError):
    """The supplied Casimirs have linearly dependent differentials where the
    duality check needs them independent."""


class DivergenceError(RuntimeError):
    """Numerical trajectory left the representable range."""

    def __init__(self, message, last_valid_time):
        super().__init__(message)
        self.last_valid_time = last_valid_time


class ModelSyntaxError(PpaError):
    """DSL parse failure; carries line/column and the offending token (shown
    cut to its first 40 characters)."""

    def __init__(self, message, line, column, token=None):
        at = f"{line}:{column}"
        shown = token if token is None or len(token) <= 40 else token[:37] + "..."
        tok = f" near {shown!r}" if token else ""
        super().__init__(f"{message} at {at}{tok}")
        self.line = line
        self.column = column
        self.token = token
