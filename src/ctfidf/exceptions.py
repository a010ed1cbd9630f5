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
    """The training documents hold no stem."""


class DimensionMismatchError(CtfidfError):
    """Operand shapes are incompatible."""


class ArtifactError(CtfidfError):
    """A saved artifact lacks a key or names an unknown model kind."""


class NonFiniteValueError(CtfidfError):
    """A feature matrix holds a NaN or infinite value."""

    def __init__(self, row: int, feature: int, value: float):
        self.row = row
        self.feature = feature
        super().__init__(f"feature matrix holds {value} at row {row}, "
                         f"feature {feature}")


def as_feature_matrix(X, sparse_format: str = "csr"):
    """X in the form the kernels read, checked; every public entry that
    takes a feature matrix passes it through here first.

    Dense input (an ndarray or nested lists) becomes a 2-d float64 array.
    Sparse input becomes a canonical float64 matrix in ``sparse_format``
    ("csr" or "csc") with no stored zeros. The caller's matrix is never
    written: it is copied only when its format, dtype, duplicates or stored
    zeros must change, so a matrix already in that form comes back as the
    same object. Raises :class:`DimensionMismatchError` unless X is 2-d and
    :class:`NonFiniteValueError` at the first NaN or infinite value.
    """
    out = X if sp.issparse(X) else np.asarray(X, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionMismatchError(
            f"feature matrix must be 2-d, got {out.ndim}-d")
    if not sp.issparse(out):
        if not np.isfinite(out).all():
            r, j = np.argwhere(~np.isfinite(out))[0]
            raise NonFiniteValueError(int(r), int(j), float(out[r, j]))
        return out
    out = out.asformat(sparse_format).astype(np.float64, copy=False)
    if not out.has_canonical_format or not out.data.all():
        if out is X:
            out = X.copy()
        out.sum_duplicates()
        out.eliminate_zeros()
    bad = ~np.isfinite(out.data)
    if bad.any():
        k = int(np.argmax(bad))
        major = int(np.searchsorted(out.indptr, k, side="right")) - 1
        minor = int(out.indices[k])
        r, j = (major, minor) if out.format == "csr" else (minor, major)
        raise NonFiniteValueError(r, j, float(out.data[k]))
    return out


class BreakdownError(CtfidfError):
    """Lanczos vector norm underflowed and no replacement direction exists."""


class NoConvergenceError(CtfidfError):
    """Iteration budget exhausted before reaching tolerance.

    ``best`` carries the best-effort result, with its own diagnostics, so
    callers can decide whether partial output is usable.
    """

    def __init__(self, message: str, *, best=None):
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
