"""Exception types shared across the package, and the two checks of every
count and real argument.

The CLI maps these to exit codes: ArgumentError -> 2, DataError -> 3, NumericalError -> 4.
"""

import numbers
import sys


class StructimError(Exception):
    """Base class for package errors."""


class ArgumentError(StructimError, ValueError):
    """A parameter value outside its documented domain, raised before any work."""


class DataError(StructimError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericalError(StructimError):
    """A numerical routine failed to converge or produced unusable output."""


def _is_integer(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool (numpy's bool is no Integral)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(value, least: int, what: str, most=sys.maxsize) -> None:
    """An integer, Python's or numpy's but not a bool, in least..most; the
    default ``most`` is the longest a sequence or an array can be."""
    if not _is_integer(value) or value < least:
        raise ArgumentError(f"{what} must be an integer >= {least}, got {value!r}")
    if value > most:
        raise ArgumentError(f"{what} must be at most {most}, got {value!r}")


def _check_real(value, name: str, low: float, high: float, ends: str = "[]") -> None:
    """A finite real, Python's or numpy's but not a bool, in the interval from
    ``low`` to ``high`` with the brackets ``ends``; NaN is in none."""
    big = sys.float_info.max
    finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and -big <= value <= big
    if not (finite and (low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)):
        raise ArgumentError(f"{name} must be a real number in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")
