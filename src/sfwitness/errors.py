"""Exception types and input checks shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise the most specific
one that applies. The checks test for int and float before the slower numbers ABCs, judge a
value as given and return it as the Python int or float that callers store and compute with.
Messages show a number by its str (a rational beyond 1e30 in e-notation), anything else by repr.
"""

import math
import numbers
from decimal import Decimal


class InputError(ValueError):
    """Caller supplied an argument that violates a documented precondition."""


class ResourceError(RuntimeError):
    """Requested computation exceeds a configured size cap."""


class UnsupportedCaseError(ValueError):
    """Valid input for which no closed form / implementation is available."""


def _shown(value) -> str:
    if isinstance(value, numbers.Rational) and abs(value) > 10 ** 30:
        return f"{Decimal(int(value.numerator)) / int(value.denominator):.3e}"
    return str(value) if isinstance(value, numbers.Number) else repr(value)


def _check_range(value, name: str, least, most):
    if most is None and value < least:
        raise InputError(f"{name} must be >= {least}, got {_shown(value)}")
    if most is not None and not least <= value <= most:
        raise InputError(f"{name} must be in [{least}, {most}], got {_shown(value)}")
    return value


def check_type(value, kind: type, caller: str) -> None:
    """InputError unless `value` is an instance of `kind`."""
    if not isinstance(value, kind):
        raise InputError(f"{caller} needs a {kind.__name__}, got {type(value).__name__}")


def check_integer(value, name: str, least: int, most: int | None = None) -> int:
    """`value` as an int; InputError unless it is an integer (not a bool) in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise InputError(f"{name} must be an integer, got {_shown(value)}")
    return int(_check_range(value, name, least, most))


def check_real(value, name: str, least: float = -math.inf, most: float | None = None) -> float:
    """`value` as a float; InputError unless a finite real (not a bool) in [least, most]."""
    try:  # math.isfinite overflows on an int or a Fraction beyond the float range
        finite = isinstance(value, (float, numbers.Real)) and math.isfinite(value)
    except OverflowError:
        finite = False
    if isinstance(value, bool) or not finite:
        raise InputError(f"{name} must be finite and real, got {_shown(value)}")
    return float(_check_range(value, name, least, most))
