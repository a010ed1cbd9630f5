import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from ctfidf.dfm import build_dfm, build_vocabulary
from ctfidf.exceptions import DimensionMismatchError
from ctfidf.preprocess import ProcessedDoc
from ctfidf.weighting import (
    Scheme,
    WeightingModel,
    apply_weighting,
    fit_weighting,
    idf_arcsinh,
    idf_classic,
)


def docs_from(stem_lists):
    return [ProcessedDoc(tuple(s)) for s in stem_lists]


def vocab_with(doc_freq, n_docs):
    """Vocabulary stub with chosen document frequencies."""
    from ctfidf.dfm import Vocabulary

    terms = tuple(f"t{i}" for i in range(len(doc_freq)))
    return Vocabulary(term_to_index={t: i for i, t in enumerate(terms)},
                      index_to_term=terms,
                      doc_freq=np.asarray(doc_freq, dtype=np.int64),
                      n_docs=n_docs)


class TestIdf:
    def test_classic_values(self):
        v = vocab_with([4, 1], n_docs=4)
        idf = idf_classic(v)
        assert idf[0] == 0.0
        assert idf[1] == pytest.approx(math.log(4), abs=1e-12)

    def test_classic_halving_law(self):
        a = idf_classic(vocab_with([10], 100))[0]
        b = idf_classic(vocab_with([5], 100))[0]
        assert b - a == pytest.approx(math.log(2), abs=1e-12)

    def test_arcsinh_values(self):
        v = vocab_with([4, 1], n_docs=4)
        idf = idf_arcsinh(v)
        assert idf[0] == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-9)
        assert idf[0] == pytest.approx(0.881374, abs=1e-6)
        assert idf[1] == pytest.approx(math.log(4 + math.sqrt(17)), abs=1e-9)
        assert idf[1] == pytest.approx(2.094713, abs=1e-6)

    def test_arcsinh_strictly_positive(self):
        v = vocab_with([1, 2, 50, 100], n_docs=100)
        assert (idf_arcsinh(v) > 0).all()

    def test_monotone_decreasing_in_doc_freq(self):
        v = vocab_with(list(range(1, 200)), n_docs=200)
        idf = idf_arcsinh(v)
        assert (np.diff(idf) < 0).all()

    def test_rank_agreement_with_classic(self):
        rng = np.random.default_rng(0)
        df = rng.choice(np.arange(1, 1000), size=300, replace=False)
        v = vocab_with(df.tolist(), n_docs=1000)
        assert (np.argsort(idf_arcsinh(v)) == np.argsort(idf_classic(v))).all()

    def test_logarithmic_compression_bounds(self):
        """ln(x) < arcsinh(x) <= ln(2x) + 1/(4x^2) for x >= 1."""
        v = vocab_with(list(range(1, 5000)), n_docs=5000)
        x = 5000 / v.doc_freq
        idf = idf_arcsinh(v)
        assert (idf > np.log(x)).all()
        assert (idf <= np.log(2 * x) + 1 / (4 * x * x) + 1e-12).all()


class TestFitApply:
    def test_uniform_corpus_constant_idf(self):
        v = vocab_with([3, 3, 3], n_docs=3)
        m = fit_weighting(v, Scheme.CTF_IDF)
        assert np.allclose(m.idf, 0.881374, atol=1e-6)
        m2 = fit_weighting(v, Scheme.TFIDF_CLASSIC)
        assert (m2.idf == 0).all()

    def test_hand_computed_two_doc_example(self):
        # term t once per doc as each doc's max-count term
        docs = docs_from([["t"], ["t"]])
        vocab = build_vocabulary(docs)
        counts = build_dfm(docs, vocab)
        model = fit_weighting(vocab, Scheme.CTF_IDF)
        out = apply_weighting(counts, model)
        expected = math.asinh(1.0) / 2 + 1.0 * math.asinh(1.0)
        assert expected == pytest.approx(1.322061, abs=1e-6)
        assert np.allclose(out.toarray(), expected, atol=1e-9)

    def test_offset_identity_at_nonzero_cells(self):
        """Clement weight minus classic-with-arcsinh-idf equals idf/N."""
        lists = [["a", "b", "a"], ["b", "c"], ["a", "c", "c", "d"], ["d"]]
        docs = docs_from(lists)
        vocab = build_vocabulary(docs)
        counts = build_dfm(docs, vocab)
        model = fit_weighting(vocab, Scheme.CTF_IDF)
        ctf = apply_weighting(counts, model)
        tf = counts.astype(float).toarray()
        tf = tf / np.maximum(tf.max(axis=1, keepdims=True), 1e-300)
        plain = tf * model.idf
        offset = model.idf / model.n_docs
        mask = counts.toarray() > 0
        diff = ctf.toarray() - plain
        assert np.allclose(diff[mask],
                           np.broadcast_to(offset, diff.shape)[mask],
                           atol=1e-12)
        assert (ctf.toarray()[~mask] == 0).all()

    def test_positivity_at_nonzero_cells(self):
        lists = [["a", "b"], ["a", "b"], ["a", "c"]]
        docs = docs_from(lists)
        vocab = build_vocabulary(docs)
        counts = build_dfm(docs, vocab)
        ctf = apply_weighting(counts, fit_weighting(vocab, Scheme.CTF_IDF))
        mask = counts.toarray() > 0
        assert (ctf.toarray()[mask] > 0).all()

    def test_classic_zero_for_ubiquitous_term(self):
        lists = [["a", "b"], ["a"], ["a", "c"]]
        docs = docs_from(lists)
        vocab = build_vocabulary(docs)
        counts = build_dfm(docs, vocab)
        out = apply_weighting(counts, fit_weighting(vocab,
                                                    Scheme.TFIDF_CLASSIC))
        j = vocab.term_to_index["a"]
        assert (out.toarray()[:, j] == 0).all()

    def test_sparsity_never_grows(self):
        rng = np.random.default_rng(5)
        lists = [[f"w{i}" for i in rng.integers(0, 30, rng.integers(1, 8))]
                 for _ in range(40)]
        docs = docs_from([list(map(str, l)) for l in lists])
        vocab = build_vocabulary(docs)
        counts = build_dfm(docs, vocab)
        for scheme in Scheme:
            out = apply_weighting(counts, fit_weighting(vocab, scheme))
            assert out.shape == counts.shape
            base = set(zip(*counts.nonzero()))
            assert set(zip(*out.nonzero())) <= base

    def test_dimension_mismatch(self):
        model = WeightingModel(Scheme.CTF_IDF, np.ones(3), 2)
        counts = sp.csr_matrix(np.ones((2, 4)))
        with pytest.raises(DimensionMismatchError):
            apply_weighting(counts, model)

    def test_serialization_roundtrip(self):
        v = vocab_with([1, 2, 3], n_docs=7)
        model = fit_weighting(v, Scheme.CTF_IDF)
        back = WeightingModel.from_dict(model.to_dict())
        assert back.scheme is model.scheme
        assert back.n_docs == model.n_docs
        assert np.array_equal(back.idf, model.idf)

    def test_empty_doc_row_stays_zero(self):
        lists = [["a"], []]
        docs = docs_from(lists)
        vocab = build_vocabulary(docs)
        counts = build_dfm(docs, vocab)
        out = apply_weighting(counts, fit_weighting(vocab, Scheme.CTF_IDF))
        assert (out.toarray()[1] == 0).all()


@st.composite
def counts_and_vocab(draw):
    """A CSR count matrix whose rows may hold duplicate and explicit-zero
    entries, and a vocabulary whose document frequencies lie in [1, N]."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    n_docs = draw(st.integers(1, 50))
    doc_freq = draw(st.lists(st.integers(1, n_docs), min_size=n_cols,
                             max_size=n_cols))
    cells = sorted(draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                           st.integers(0, n_cols - 1),
                                           st.integers(0, 4)),
                                 max_size=30)))
    indptr = np.searchsorted([r for r, _, _ in cells], np.arange(n_rows + 1))
    counts = sp.csr_matrix(([v for *_, v in cells], [c for _, c, _ in cells],
                            indptr), shape=(n_rows, n_cols), dtype=np.float64)
    return counts, vocab_with(doc_freq, n_docs)


@given(counts_and_vocab())
def test_weighting_patterns(case):
    counts, vocab = case
    occupied = counts.toarray() > 0  # duplicates summed
    ubiquitous = vocab.doc_freq == vocab.n_docs
    for scheme in Scheme:
        out = apply_weighting(counts, fit_weighting(vocab, scheme))
        stored = sp.csr_matrix((np.ones(out.nnz), out.indices, out.indptr),
                               shape=out.shape).toarray() > 0
        assert not (stored & ~occupied).any()  # the pattern never grows
        weights = out.toarray()
        if scheme is Scheme.CTF_IDF:
            assert (weights[occupied] > 0).all()
            assert np.array_equal(stored, occupied)
        else:  # classic tfidf is zero exactly where df == N
            assert np.array_equal(weights != 0, occupied & ~ubiquitous)
