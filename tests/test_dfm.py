from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from ctfidf.dfm import build_dfm, build_vocabulary
from ctfidf.exceptions import EmptyVocabularyError
from ctfidf.preprocess import ProcessedDoc


def docs_from(stem_lists):
    return [ProcessedDoc(tuple(s)) for s in stem_lists]


class TestVocabulary:
    def test_basic_counts(self):
        vocab = build_vocabulary(docs_from([["a", "b"], ["b", "c"]]))
        assert vocab.index_to_term == ("a", "b", "c")
        assert vocab.n_docs == 2
        assert dict(zip(vocab.index_to_term, vocab.doc_freq)) == {
            "a": 1, "b": 2, "c": 1}

    def test_duplicates_count_once_per_doc(self):
        vocab = build_vocabulary(docs_from([["a", "a"]]))
        assert vocab.doc_freq.tolist() == [1]

    def test_lexicographic_columns(self):
        vocab = build_vocabulary(docs_from([["zeta", "alpha", "mid"]]))
        assert vocab.index_to_term == ("alpha", "mid", "zeta")
        assert vocab.term_to_index == {"alpha": 0, "mid": 1, "zeta": 2}

    def test_empty_vocabulary_error(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary(docs_from([[], []]))

    def test_mutually_inverse_maps(self):
        vocab = build_vocabulary(docs_from([["x", "y"], ["z"]]))
        for term, j in vocab.term_to_index.items():
            assert vocab.index_to_term[j] == term


class TestBuildDfm:
    def test_counts(self):
        vocab = build_vocabulary(docs_from([["a", "a", "b"], ["c"]]))
        X = build_dfm(docs_from([["a", "a", "b"], ["c"]]), vocab)
        assert X.shape == (2, 3)
        assert X.toarray().tolist() == [[2, 1, 0], [0, 0, 1]]

    def test_oov_dropped(self):
        vocab = build_vocabulary(docs_from([["a"]]))
        X = build_dfm(docs_from([["zzz", "yyy"]]), vocab)
        assert X.nnz == 0
        assert X.shape == (1, 1)

    def test_total_conservation(self):
        lists = [["a", "b", "a"], ["b", "b"], [], ["c", "a", "c", "c"]]
        vocab = build_vocabulary(docs_from(lists))
        X = build_dfm(docs_from(lists), vocab)
        assert X.sum() == sum(len(l) for l in lists)

    def test_docfreq_matches_nonzero_rows(self):
        lists = [["a", "b"], ["b"], ["a", "a", "c"], ["c", "b"]]
        vocab = build_vocabulary(docs_from(lists))
        X = build_dfm(docs_from(lists), vocab)
        nonzero_rows_per_col = np.diff(X.tocsc().indptr)
        assert nonzero_rows_per_col.tolist() == vocab.doc_freq.tolist()

    def test_csr_invariants(self):
        lists = [["b", "a", "b"], ["c", "a"], ["d"] * 5]
        vocab = build_vocabulary(docs_from(lists))
        X = build_dfm(docs_from(lists), vocab)
        assert isinstance(X, sp.csr_matrix)
        assert X.has_sorted_indices
        assert np.all(X.data != 0)
        assert np.all(np.diff(X.indptr) >= 0)
        assert len(X.indptr) == X.shape[0] + 1
        for i in range(X.shape[0]):
            row_cols = X.indices[X.indptr[i]:X.indptr[i + 1]]
            assert np.all(np.diff(row_cols) > 0)

    def test_row_order_preserved(self):
        lists = [["a"], ["b"], ["a", "b"]]
        vocab = build_vocabulary(docs_from(lists))
        X = build_dfm(docs_from(lists), vocab)
        assert X.toarray().tolist() == [[1, 0], [0, 1], [1, 1]]


def stem_lists(alphabet):
    """Documents of stems from a small alphabet, so stems repeat."""
    return st.lists(st.lists(st.sampled_from(alphabet), max_size=10),
                    max_size=8)


# "f" and "g" are never fitted, so they are out of vocabulary
@given(fit=stem_lists("abcde").filter(any), apply=stem_lists("abcdefg"))
def test_counts_match_counter_reference(fit, apply):
    vocab = build_vocabulary(docs_from(fit))
    X = build_dfm(docs_from(apply), vocab)
    expected = np.zeros((len(apply), len(vocab)))
    for i, stems in enumerate(apply):
        for stem, count in Counter(stems).items():
            if stem in vocab.term_to_index:
                expected[i, vocab.term_to_index[stem]] = count
    assert X.shape == expected.shape
    assert np.array_equal(X.toarray(), expected)
    assert X.has_canonical_format
    assert X.nnz == np.count_nonzero(expected)
    assert X.data.dtype == np.float64
