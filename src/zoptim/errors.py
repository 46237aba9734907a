"""Exception hierarchy shared across the library, and its one integer rule."""

import math
import numbers
from contextlib import contextmanager


class ZoptimError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(ZoptimError, ValueError):
    """An argument is outside its documented domain."""


class NumericFailureError(ZoptimError, ArithmeticError):
    """A computation produced a non-finite value.

    Carries the offending point (when known) and the bad value so callers
    can report where the objective blew up.
    """

    def __init__(self, message, point=None, value=None):
        super().__init__(message)
        self.point = point
        self.value = value


class DegenerateScaleError(ZoptimError, ArithmeticError):
    """A scale estimate collapsed to zero (e.g. all perturbed losses equal)."""


class PreconditionError(ZoptimError, ValueError):
    """A theorem's parameter condition does not hold, so its bound is undefined."""


class StalePrefixError(InvalidArgumentError):
    """A cached activation prefix no longer matches the current parameters."""


class ConfigError(ZoptimError, ValueError):
    """An experiment configuration is malformed or inconsistent."""


@contextmanager
def invalid_config(what):
    """Re-raise an InvalidArgumentError from the block as ConfigError("invalid <what>: ...")."""
    try:
        yield
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def integer(value, what, lo=None, hi=None):
    """value as an int in [lo, hi), or InvalidArgumentError naming what; no
    bound when lo is None and none above when hi is None. A Python or numpy
    integer is an integer, and so is a finite real with no fractional part;
    a bool, a string and None are not."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                isinstance(value, numbers.Integral) or (math.isfinite(value) and value % 1 == 0)):
            raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if lo is not None and not (lo <= value and (hi is None or value < hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise InvalidArgumentError(f"{what} must be {bound}, got {value}")
    return value
