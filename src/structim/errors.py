"""Exception types shared across the package.

The CLI maps these to exit codes: ArgumentError -> 2, DataError -> 3, NumericalError -> 4.
"""

import numbers


class StructimError(Exception):
    """Base class for package errors."""


class ArgumentError(StructimError, ValueError):
    """A parameter value outside its documented domain, raised before any work."""


class DataError(StructimError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericalError(StructimError):
    """A numerical routine failed to converge or produced unusable output."""


def _check_seed(seed) -> None:
    """Seeds feed numpy's generators, which take nonnegative integers only."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ArgumentError(f"seed must be a nonnegative integer, got {seed!r}")
