"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so user-facing failures
(bad input files, bad parameters, unusable labels) must raise one of the
classes below rather than a bare built-in exception.  Programming errors
(out-of-range indices, shape mismatches) use the ordinary built-ins.
Every integer parameter (a count, limit, window length or seed) is admitted
by :func:`require_int`, which refuses a float even when it is integral.
"""

import operator


class DldeError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(DldeError):
    """An input file could not be parsed (ragged rows, non-numeric fields)."""


class EmptyInputError(InputFormatError):
    """An input file contained no data lines."""


class ConfigurationError(DldeError):
    """A parameter value is invalid or inconsistent with the data."""


class MetricError(DldeError):
    """A metric is undefined for the given inputs (e.g. single-class labels)."""


def require_int(value, minimum: int, what: str) -> int:
    """``value`` as a Python int; ConfigurationError naming ``what`` unless
    ``operator.index`` takes it (a float does not) and it is >= ``minimum``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = minimum - 1
    if number < minimum:
        raise ConfigurationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return number
