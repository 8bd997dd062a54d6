"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies.
"""

import numbers


class InputError(ValueError):
    """Caller supplied an argument that violates a documented precondition."""


class ResourceError(RuntimeError):
    """Requested computation exceeds a configured size cap."""


class UnsupportedCaseError(ValueError):
    """Valid input for which no closed form / implementation is available."""


def check_integer(value, name: str, least: int, most: int | None = None) -> int:
    """`value` as an int; InputError unless it is an integer (not a bool) in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if most is None and value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
    if most is not None and not least <= value <= most:
        raise InputError(f"{name} must be in [{least}, {most}], got {value}")
    return int(value)
