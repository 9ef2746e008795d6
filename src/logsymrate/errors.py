"""Exception hierarchy.

Two broad classes matter to callers (and to the CLI exit-code contract):
input/validation problems (``DataFormatError``, ``DataValidationError``,
``SpecificationError``) and numerical failures (``NumericalError`` and its
subclasses). Everything derives from ``ModelError``.

It also holds the type rules of a spec field and the range rules built on
them, each with one message, which the object owning the field applies in
its constructor: a spec file's value and a library argument are refused alike.
"""

import math
import numbers


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(ModelError):
    """Malformed input: bad CSV header, unreadable bytes, bad JSON shape."""


class DataValidationError(ModelError):
    """Well-formed input with invalid values (negative counts, empty table)."""


class SpecificationError(ModelError):
    """Invalid model/term/shape specification or lookup of an unknown term."""


class ComparisonError(DataValidationError):
    """Two fits cannot be compared (different underlying tables)."""


class NumericalError(ModelError):
    """Base class for numerical failures during fitting or diagnostics."""


class EvaluationError(NumericalError):
    """Objective evaluation failed (non-finite dispersion or location)."""


class RankDeficiencyError(NumericalError):
    """Singular (penalized) normal equations."""


class ConstantCovariateError(DataValidationError, RankDeficiencyError):
    """A model uses age or period, and the table holds one value of it:
    invalid input (CLI exit 2) that also makes the design rank deficient."""


class SelectionError(NumericalError):
    """Smoothing-parameter grid search had no successful fit."""


class EnvelopeError(NumericalError):
    """Too many envelope refits failed."""


class UndefinedCorrelationError(NumericalError):
    """Correlation requested but one side has zero variance."""


def _whole(value, what: str) -> int:
    """A count or seed as int: an int or numpy integer is kept exactly and an
    integral finite float becomes that int; a string, a boolean, a fraction
    or a non-finite value is refused."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and math.isfinite(value) and float(value).is_integer():
        return int(value)
    raise SpecificationError(f"{what} must be a whole number, got {value!r}")


def _flag(value, what: str) -> bool:
    """True or false as a bool: JSON true is not 1, and "false" is not false."""
    if not isinstance(value, bool):
        raise SpecificationError(f"{what} must be true or false, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A number as float: JSON true is not 1, "1e5" is not a number, and an
    int that no float can hold is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecificationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SpecificationError(f"{what} must be a number a float can hold, "
                                 f"got one beyond 1.8e308 in magnitude") from None


def _list(value, what: str) -> tuple:
    """A list or tuple as a tuple, so that a string is not read one character
    at a time nor a dict by its keys."""
    if not isinstance(value, (list, tuple)):
        raise SpecificationError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def _finite(value, what: str) -> float:
    """A finite number as float."""
    number = _number(value, what)
    if not math.isfinite(number):
        raise SpecificationError(f"{what} must be a finite number, got {value}")
    return number


def _is_positive(values):
    """``_positive``'s rule, entry by entry on an array or on one number."""
    return (values > 0) & (values < math.inf)


def _positive_problem(what: str, value):
    """Why a number is not positive and finite, or None: ``_positive``'s
    message, which the record and cell population checks read."""
    if not _is_positive(value):
        return f"{what} must be positive and finite, got {value}"
    return None


def _positive(value, what: str) -> float:
    """A positive finite number as float."""
    number = _number(value, what)
    problem = _positive_problem(what, value)
    if problem:
        raise SpecificationError(problem)
    return number


def _at_least(value, what: str, low: int) -> int:
    """A whole number of at least ``low`` as int."""
    whole = _whole(value, what)
    if whole < low:
        raise SpecificationError(f"{what} must be >= {low}, got {whole}")
    return whole
