"""Exception types raised across the package."""


class EnthierError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(EnthierError, ValueError):
    """A matrix or amplitude array contains NaN or an infinity."""


class DimensionTooLargeForNewton(EnthierError):
    """Newton's identities lose relative accuracy on the top levels at high dimension."""


class DimensionMismatch(EnthierError):
    """Operands have incompatible dimensions, or an input has the wrong
    number of them: a matrix, or a stack of matrices, was required."""


class IndexOutOfRange(EnthierError):
    """Amplitude index outside the declared dimensions."""


class ZeroState(EnthierError):
    """All amplitudes vanish; no state can be normalized."""


class NotNormalized(EnthierError):
    """Norm deviates too far from 1 and renormalization was not requested."""


class DuplicateEntry(EnthierError):
    """The same amplitude index was supplied twice."""


class NegativeCoefficient(EnthierError):
    """Schmidt coefficients must be nonnegative."""


class InvalidDensity(EnthierError):
    """Not a valid density matrix (shape, hermiticity, trace, or positivity)."""


class NonPositiveOrder(EnthierError):
    """Renyi order must be positive."""


class ConcurrenceOutOfRange(EnthierError):
    """Concurrence argument outside [0, 1]."""


class ParseError(EnthierError):
    """State or density document is structurally malformed."""
