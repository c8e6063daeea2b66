"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument falls outside an operation's domain."""


class FieldMismatchError(DomainError):
    """Operands belong to different fields."""


class VerificationError(RuntimeError):
    """An internal exactness check failed; an identity the library relies on
    did not hold for the given inputs."""


class ResourceError(RuntimeError):
    """A computation or its output would pass a fixed size limit (see census.DEGREE_BUDGET)."""
