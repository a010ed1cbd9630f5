"""Vocabulary construction and sparse document-frequency matrices.

The matrix is CSR (scipy) with one row per document and one column per
vocabulary term, values being in-document term counts. Column order is
lexicographic by term so matrices are identical across runs and platforms.
Only unigrams are counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp

from .exceptions import EmptyVocabularyError
from .preprocess import ProcessedDoc


@dataclass(frozen=True)
class Vocabulary:
    """Term <-> column mapping with training document frequencies."""

    term_to_index: dict[str, int]
    index_to_term: tuple[str, ...]
    doc_freq: np.ndarray  # int64, per-term count of docs containing it
    n_docs: int

    def __len__(self) -> int:
        return len(self.index_to_term)


def build_vocabulary(docs: list[ProcessedDoc]) -> Vocabulary:
    """The distinct stems in sorted order, with their document frequencies;
    a stem repeated within one document counts once toward its frequency."""
    df = Counter(chain.from_iterable(set(doc.stems) for doc in docs))
    if not df:
        raise EmptyVocabularyError(f"no stem in {len(docs)} document(s)")
    terms = sorted(df)
    doc_freq = np.array([df[t] for t in terms], dtype=np.int64)
    return Vocabulary(term_to_index={t: j for j, t in enumerate(terms)},
                      index_to_term=tuple(terms),
                      doc_freq=doc_freq,
                      n_docs=len(docs))


def build_dfm(docs: list[ProcessedDoc], vocab: Vocabulary) -> sp.csr_matrix:
    """Count vocabulary terms per document; unknown stems are dropped.

    Out-of-vocabulary stems at apply time have no IDF statistic, so they
    contribute nothing (fit-on-train, apply-on-test discipline).
    """
    t2i = vocab.term_to_index
    # a row's entries end where its stems end, counting known stems only
    stems_end = np.cumsum([0] + [len(doc.stems) for doc in docs])
    stems = chain.from_iterable(doc.stems for doc in docs)
    cols = np.fromiter(map(t2i.get, stems, repeat(-1)), dtype=np.int64,
                       count=stems_end[-1])
    known = cols >= 0
    indptr = np.concatenate(([0], np.cumsum(known)))[stems_end]
    # an entry of 1 per occurrence; summing the duplicates gives the counts
    X = sp.csr_matrix((np.ones(indptr[-1]), cols[known], indptr),
                      shape=(len(docs), len(vocab)))
    X.sum_duplicates()
    return X
