"""Exception types shared across the package, and the one size cap."""

# the one size cap, fixed: every exhaustive loop, master polynomial and
# modulus search
DEGREE_BUDGET = 100_000


class DomainError(ValueError):
    """An argument falls outside an operation's domain."""


class FieldMismatchError(DomainError):
    """Operands belong to different fields."""


class VerificationError(RuntimeError):
    """An internal exactness check failed; an identity the library relies on
    did not hold for the given inputs."""


class ResourceError(RuntimeError):
    """A computation or its output would pass a fixed size limit (see DEGREE_BUDGET)."""


def within_budget(size: int, what: str) -> None:
    """Raise ResourceError, before any work, when an exhaustive loop
    would take more than DEGREE_BUDGET steps."""
    if size > DEGREE_BUDGET:
        raise ResourceError(f"{what} would take more than {DEGREE_BUDGET} steps")


def capped_power(q: int, k: int) -> int:
    """q^k (q >= 2) if within DEGREE_BUDGET, else past it without building q^k."""
    return q ** min(k, DEGREE_BUDGET.bit_length())
