"""Exception types shared across the package."""


def ideal_shape(ideal) -> str:
    """An ideal as messages name it: by n and the generator count, never by exponents that may be huge."""
    m = len(ideal.gens)
    return f"an ideal in {ideal.n} variables with {m} generator{'s' * (m != 1)}"


class StaircaseError(Exception):
    """Base class for all package errors."""


class FormatError(StaircaseError, ValueError):
    """Malformed input: bad exponent vectors, ambient mismatches, zero ideals."""


class ParseError(FormatError):
    """Malformed ideal document; carries a location context string."""

    def __init__(self, message, context=None):
        self.context = context
        super().__init__(message if context is None else f"{context}: {message}")


class DimensionError(StaircaseError, ValueError):
    """Operation requires a different (co)dimension, e.g. a zero-dimensional ideal."""


class DomainError(StaircaseError, ValueError):
    """Argument outside the operation's domain, e.g. a negative coordinate."""


class ResourceError(StaircaseError, RuntimeError):
    """A configurable work budget was exhausted before the computation finished."""


class NotZeroDimensionalError(DimensionError):
    """The truncation oracle could not certify a power of the maximal ideal."""


class ConsistencyError(StaircaseError, RuntimeError):
    """A proved inequality failed on exact data, which means a bug.

    Carries the offending report so callers can dump the counterexample.
    """

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)
