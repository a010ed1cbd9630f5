"""Term weighting: classic TF-IDF and the clement arcsinh variant.

Both schemes share the max-normalized term frequency

    tf(t, d) = count(t, d) / max_w count(w, d).

Classic inverse document frequency is ln(N / df); the clement variant uses
arcsinh(N / df) = ln(x + sqrt(x^2 + 1)), which is strictly positive even
for terms present in every document, and adds a small corpus-level offset
idf / N at every occupied cell:

    weight(t, d) = idf(t) / N + tf(t, d) * idf(t).

The offset goes on occupied cells only, where the count is nonzero;
applying it everywhere would densify the matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dfm import Vocabulary
from .exceptions import DimensionMismatchError, as_feature_matrix


class Scheme(enum.Enum):
    TFIDF_CLASSIC = "tfidf"
    CTF_IDF = "ctfidf"


@dataclass(frozen=True)
class WeightingModel:
    """IDF statistics frozen at fit time (training corpus only)."""

    scheme: Scheme
    idf: np.ndarray
    n_docs: int

    def to_dict(self) -> dict:
        return {"scheme": self.scheme.value, "nDocs": self.n_docs,
                "idf": self.idf.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "WeightingModel":
        return cls(Scheme(d["scheme"]), np.asarray(d["idf"], dtype=np.float64),
                   int(d["nDocs"]))


def _tf_matrix(counts: sp.csr_matrix) -> sp.csr_matrix:
    """Row-wise max normalization of a canonical float64 CSR count matrix,
    as a new matrix."""
    nz_per_row = np.diff(counts.indptr)
    occupied = nz_per_row > 0
    row_max = np.zeros(counts.shape[0])
    row_max[occupied] = np.maximum.reduceat(
        counts.data, counts.indptr[:-1][occupied])
    inv = np.zeros_like(row_max)
    np.divide(1.0, row_max, out=inv, where=row_max > 0)
    return sp.csr_matrix((counts.data * np.repeat(inv, nz_per_row),
                          counts.indices.copy(), counts.indptr.copy()),
                         shape=counts.shape)


def idf_classic(vocab: Vocabulary) -> np.ndarray:
    """ln(N / df); zero for terms present in every document."""
    return np.log(vocab.n_docs / vocab.doc_freq.astype(np.float64))


def idf_arcsinh(vocab: Vocabulary) -> np.ndarray:
    """arcsinh(N / df); strictly positive since N / df >= 1."""
    return np.arcsinh(vocab.n_docs / vocab.doc_freq.astype(np.float64))


def fit_weighting(vocab: Vocabulary, scheme: Scheme) -> WeightingModel:
    if scheme is Scheme.CTF_IDF:
        idf = idf_arcsinh(vocab)
    else:
        idf = idf_classic(vocab)
    return WeightingModel(scheme=scheme, idf=idf, n_docs=vocab.n_docs)


def apply_weighting(counts: sp.csr_matrix,
                    model: WeightingModel) -> sp.csr_matrix:
    """Weight a count matrix with a fitted model; a dense one is read as
    CSR.

    Returns CSR with the same shape; the sparsity pattern never grows.
    """
    counts = sp.csr_matrix(as_feature_matrix(counts))
    if counts.shape[1] != model.idf.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {counts.shape[1]} columns, model has "
            f"{model.idf.shape[0]} idf entries")
    out = _tf_matrix(counts)
    out.data *= model.idf[out.indices]
    if model.scheme is Scheme.CTF_IDF:
        out.data += (model.idf / model.n_docs)[out.indices]
    out.eliminate_zeros()
    return out
