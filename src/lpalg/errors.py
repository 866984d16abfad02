"""Exception types shared across the package, and the one capacity rule."""


class UnsupportedExponentError(ValueError):
    """Raised when an exact formula is requested for an exponent that has none."""


class NormOverflowError(ValueError):
    """Raised when an operator norm exceeds the largest finite float, so no value can be returned."""


class CapacityError(RuntimeError):
    """Raised by :func:`require_capacity` when a size exceeds its cap (a Z
    window's radius, a cyclic group's order, ``pnorm_oracle``'s dimension
    and the dense budget of :mod:`lpalg.crossed`, each documented where it
    is checked), or when a search cannot meet its target within the
    permitted size (the Z Folner search and the witness's epsilon / (3 M)
    budget)."""


class CertificateError(RuntimeError):
    """Raised when a numerical certificate that should hold by construction is violated."""


def require_capacity(size: int, cap: int, what: str) -> int:
    """The one rule by which lpalg refuses a size: ``size`` when it is at
    most ``cap``, else a CapacityError ``{what} {size} exceeds the largest,
    {cap}``."""
    if size > cap:
        raise CapacityError(f"{what} {size} exceeds the largest, {cap}")
    return size
