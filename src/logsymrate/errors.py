"""Exception hierarchy.

Two broad classes matter to callers (and to the CLI exit-code contract):
input/validation problems (``DataFormatError``, ``DataValidationError``,
``SpecificationError``) and numerical failures (``NumericalError`` and its
subclasses). Everything derives from ``ModelError``.
"""


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
