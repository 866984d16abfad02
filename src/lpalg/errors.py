"""Exception types shared across the package."""


class UnsupportedExponentError(ValueError):
    """Raised when an exact formula is requested for an exponent that has none."""


class DimensionGuardError(ValueError):
    """Raised when a brute-force routine is asked to handle a matrix above its size cap."""


class NormOverflowError(ValueError):
    """Raised when an operator norm exceeds the largest finite float, so no value can be returned."""


class CapacityError(RuntimeError):
    """Raised when a search cannot meet its target within the permitted window size."""


class CertificateError(RuntimeError):
    """Raised when a numerical certificate that should hold by construction is violated."""
