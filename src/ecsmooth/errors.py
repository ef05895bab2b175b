"""Exception types shared across the package."""


class EcsmoothError(Exception):
    """Base class for all package-specific errors."""


class UsageError(EcsmoothError):
    """Invalid arguments (mismatched moduli, bad parameters, unknown names)."""


class DomainError(EcsmoothError):
    """Numeric input outside the supported domain."""


class CapacityError(EcsmoothError):
    """A budget or memory guard was exceeded."""


class BadReductionError(EcsmoothError):
    """Prime divides the curve discriminant."""


class AmbiguityError(EcsmoothError):
    """A randomized order computation could not isolate a unique answer."""


class DivisorFound(EcsmoothError):
    """A group-law denominator is not a unit mod n; g = gcd(denominator, n),
    1 < g <= n.  ECM turns it into a factor."""

    def __init__(self, g: int):
        super().__init__(f"divisor {g} surfaced by a failed inversion")
        self.g = g


class CacheError(UsageError):
    """An order-cache file failed its load check."""
