"""Exception types shared across the library and mapped to CLI exit codes."""


class QuatAlgError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QuatAlgError):
    """Operands have incompatible shapes."""


class IndexOutOfRange(QuatAlgError):
    """A 1-based row, column, or anchor index falls outside the matrix."""


class InvalidOrder(QuatAlgError):
    """An index-set order k lies outside 0..n."""


class SizeCapExceeded(QuatAlgError):
    """A determinant was requested above the size cap, or a result holds a
    number with more decimal digits than Python will write out."""


class NotHermitian(QuatAlgError):
    """An operation defined only for Hermitian matrices got something else."""


class Singular(QuatAlgError):
    """Inversion was requested for a matrix with zero determinant."""


class IndexTooLarge(QuatAlgError):
    """The group inverse exists only for matrices of index at most 1."""


class NumericalFailure(QuatAlgError):
    """The floating-point path hit a singular shifted system."""


class InternalInconsistency(QuatAlgError):
    """Two routes that must agree exactly disagreed; indicates a bug."""


class ParseError(QuatAlgError):
    """Malformed JSON input or quaternion encoding."""


class ValidationError(QuatAlgError):
    """An input document does not provide what the command needs."""
