"""Exception types raised across the toolkit.

Every error that callers are expected to catch derives from
:class:`CtfidfError`, so ``except CtfidfError`` at a pipeline boundary is
sufficient to distinguish toolkit failures from programming errors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class CtfidfError(Exception):
    """Base class for all toolkit errors."""


class MalformedRowError(CtfidfError):
    """A data row has too few fields for the configured columns."""

    def __init__(self, line_number: int, message: str = ""):
        self.line_number = line_number
        super().__init__(message or f"malformed row at line {line_number}")


class EncodingError(CtfidfError):
    """Input file is not valid UTF-8."""


class UnknownMappingKeyError(CtfidfError):
    """A label-mapping key matches no label present in the corpus."""


class TooFewRecordsError(CtfidfError):
    """Corpus too small to split."""


class DegenerateStratumError(CtfidfError):
    """A label has fewer than 2 records under stratified splitting."""


class EmptyVocabularyError(CtfidfError):
    """No term survives the document-frequency threshold."""


class DimensionMismatchError(CtfidfError):
    """Operand shapes are incompatible."""


class NonFiniteValueError(CtfidfError):
    """A feature matrix holds a NaN or infinite value."""

    def __init__(self, row: int, feature: int, value: float):
        self.row = row
        self.feature = feature
        super().__init__(f"feature matrix holds {value} at row {row}, "
                         f"feature {feature}")


def check_finite(X) -> None:
    """Raise :class:`NonFiniteValueError` for the first NaN or infinite
    value of X, a float64 array or a CSR or CSC matrix."""
    if not sp.issparse(X):
        if not np.isfinite(X).all():
            r, j = np.argwhere(~np.isfinite(X))[0]
            raise NonFiniteValueError(int(r), int(j), float(X[r, j]))
        return
    bad = ~np.isfinite(X.data)
    if bad.any():
        k = int(np.argmax(bad))
        major = int(np.searchsorted(X.indptr, k, side="right")) - 1
        minor = int(X.indices[k])
        r, j = (major, minor) if X.format == "csr" else (minor, major)
        raise NonFiniteValueError(r, j, float(X.data[k]))


class BreakdownError(CtfidfError):
    """Lanczos vector norm underflowed and no replacement direction exists."""


class NoConvergenceError(CtfidfError):
    """Iteration budget exhausted before reaching tolerance.

    Carries the best-effort result so callers can decide whether partial
    output is usable.
    """

    def __init__(self, message: str, *, restarts: int | None = None,
                 worst_residual: float | None = None, best=None):
        self.restarts = restarts
        self.worst_residual = worst_residual
        self.best = best
        super().__init__(message)


class SingleClassError(CtfidfError):
    """Training labels contain fewer than 2 distinct classes."""


class LengthMismatchError(CtfidfError):
    """Paired sequences differ in length."""


class UnknownPositiveLabelError(CtfidfError):
    """Requested positive label does not occur in the label set."""


class InvalidKError(CtfidfError):
    """Invalid fold count for k-fold splitting."""


class ConfigError(CtfidfError):
    """Experiment configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class UnsupportedModelError(CtfidfError):
    """Operation not applicable to this model type."""
