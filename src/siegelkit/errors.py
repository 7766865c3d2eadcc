"""Shared exception types (names double as the CLI's numeric-failure tags)
and the count check every entry point shares."""

import operator


class SiegelError(Exception):
    """Base class for all package-specific failures."""


class DomainError(SiegelError, ValueError):
    """Argument outside the documented domain."""


class DepthExceeded(SiegelError):
    """Requested convergent depth beyond a finite expansion."""


class RationalInput(SiegelError):
    """Operation requires an irrational expansion."""


class SmallDivisorBlowup(SiegelError):
    """Linearization hit a genuine pole (zero divisor, nonzero numerator)."""


class OverflowGuard(SiegelError):
    """Series coefficient exceeded the configured magnitude cap."""


class FactorizationError(SiegelError):
    """Germ factor g whose |g - 1| majorant reaches 1 on the check circle."""


class NoAdmissibleHeight(SiegelError):
    """No sampled height below the ceiling kept all orbits in the half-plane."""


class InsufficientDepth(SiegelError):
    """Continued fraction too short (or degenerate) for the requested order."""


class ConditionsNeverMet(SiegelError):
    """Hop/jump closeness conditions failed at every sampled height."""


class UndefinedReturn(SiegelError):
    """Return orbit dropped below the base height before landing."""


class BudgetExceeded(SiegelError):
    """Hop count exceeded its budget; accepted runs must not see this."""


class TargetAboveRadius(SiegelError):
    """Requested target radius at or above the estimated radius."""


class StageFailed(SiegelError):
    """Construction stage found no candidate meeting its certificates."""


class FamilyUnsuitable(StageFailed):
    """Family shows no radius descent; looks degenerate."""


class RefinementCap(SiegelError):
    """Interval refinement reached its precision cap before separating two values."""


class SchemaMismatch(SiegelError):
    """Serialized artifact has an unexpected header or schema version."""


def is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer of at least ``least``: one that
    ``operator.index`` takes (numpy integers too) and not a bool."""
    try:
        return not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        return False
