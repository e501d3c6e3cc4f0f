"""Exception types shared across the package, and the domain rule for numeric parameters."""

import math
import numbers


class WrlabError(Exception):
    """Base class for all wrlab errors."""


class InvalidInputError(WrlabError, ValueError):
    """A value is outside the documented domain of an operation."""


class AllTiesError(WrlabError):
    """Every pairwise comparison tied; the win ratio is undefined."""


class DegenerateCountsError(WrlabError):
    """Zero wins or zero losses; asymptotic inference is invalid.

    Bootstrap or Wilson-based inference remains usable in this situation.
    """


class InfeasibleParameterError(WrlabError):
    """A requested target cannot be reached by any parameter value."""


class InfiniteSampleSizeError(WrlabError):
    """Sample size diverges (requested effect is the null value)."""


class UnboundedVarianceError(WrlabError):
    """Variance formula diverges (tie probability at or above one)."""


class UndefinedStatisticError(WrlabError):
    """Test statistic has zero variance and is undefined."""


class DatasetFormatError(WrlabError, ValueError):
    """A dataset or config file does not conform to the documented schema."""


# The domain rule for numeric parameters. A real is a finite int, float or other
# numbers.Real; a count is an int or other numbers.Integral; a bool is neither.
# Exact int and float are tested first, as the generators check every dataset.

def _is_real(value: object, low: float = -math.inf, high: float = math.inf,
             ends: str = "()") -> bool:
    """Whether `value` is a finite real between `low` and `high`, each end closed `[ ]`
    or open `( )` as `ends` says; an infinite end is always open."""
    return ((type(value) is float or type(value) is int
             or isinstance(value, numbers.Real) and not isinstance(value, bool))
            and (low < value < high or value == low != -math.inf and ends[0] == "["
                 or value == high != math.inf and ends[1] == "]"))


def _check_real(name: str, value: object, low: float = -math.inf, high: float = math.inf,
                ends: str = "()") -> None:
    """Raise `InvalidInputError` naming `name` and `value` unless `_is_real` holds."""
    if ((type(value) is float or type(value) is int) and low < value < high
            or _is_real(value, low, high, ends)):
        return
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    rule = (f"in {ends[0]}{low:g}, {high:g}{ends[1]}" if high != math.inf
            else f"{'>=' if ends[0] == '[' else '>'} {low:g}" if low != -math.inf else "")
    if not -math.inf < value < math.inf:
        rule = f"finite and {rule}" if rule else "finite"
    raise InvalidInputError(f"{name} must be {rule}, got {value!r}")


def _is_count(value: object, least: int = 1) -> bool:
    return (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) and value >= least


def _check_count(name: str, value: object, least: int = 1) -> None:
    """Raise `InvalidInputError` naming `name` and `value` unless `_is_count` holds."""
    if not (type(value) is int and value >= least or _is_count(value, least)):
        kind = "" if _is_count(value, -math.inf) else "an integer "
        raise InvalidInputError(f"{name} must be {kind}>= {least}, got {value!r}")
