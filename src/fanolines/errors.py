"""Exception types shared across the package."""


class FanolinesError(Exception):
    """Base class for all package errors."""


class ZeroInversion(FanolinesError):
    """Attempted to invert the zero element of a field."""


class NotPrime(FanolinesError):
    """A claimed prime modulus is composite."""


class ParseError(FanolinesError):
    """Polynomial text does not conform to the grammar.

    Carries the character offset of the first offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(FanolinesError):
    """Variable name not declared for this parse."""


class ZeroPolynomial(FanolinesError):
    """Operation undefined for the zero polynomial."""


class SingularMatrix(FanolinesError):
    """A matrix required to be invertible is singular."""


class BudgetExceeded(FanolinesError):
    """Requested enumeration is larger than the configured point budget."""


class InvalidParameters(FanolinesError):
    """Pipeline parameters outside the supported range."""


class DegenerateInstance(FanolinesError):
    """A randomly sampled instance failed one of its certificates."""


class Inconclusive(FanolinesError):
    """Repeated random slicing produced no stable modal count."""


class NotZeroDimensional(FanolinesError):
    """Point solving was asked for on a positive-dimensional system."""
