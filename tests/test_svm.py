import json

import numpy as np
import pytest
import scipy.sparse as sp

from ctfidf.exceptions import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteValueError,
    SingleClassError,
)
from ctfidf.svm import SvmModel, decision_scores, predict_svm, train_svm


def clouds(n=40, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal([-gap, -gap], 0.5, (n, 2))
    B = rng.normal([gap, gap], 0.5, (n, 2))
    X = np.vstack([A, B])
    y = ["neg"] * n + ["pos"] * n
    return X, y


def sparse_problem(seed):
    rng = np.random.default_rng(seed)
    X = sp.random(300, 400, density=0.02, format="csr", random_state=rng)
    truth = rng.standard_normal(400)
    y = ["pos" if s >= 0 else "neg" for s in X @ truth]
    return X, y


class TestTraining:
    def test_separable_reaches_zero_hinge(self):
        X, y = clouds()
        model = train_svm(X, y, tol=1e-8, seed=1)
        assert predict_svm(model, X) == y
        margins = np.array([1.0 if lab == "pos" else -1.0 for lab in y]) \
            * decision_scores(model, X)
        hinge = np.maximum(0.0, 1.0 - margins).sum()
        assert hinge <= 1e-6

    def test_scaled_data_same_training_predictions(self):
        X, y = clouds(seed=2)
        a = train_svm(X, y, seed=3)
        b = train_svm(2.0 * X, y, seed=3)
        assert predict_svm(a, X) == predict_svm(b, 2.0 * X) == y

    def test_label_name_swap_flips_sign_exactly(self):
        X, y = clouds(seed=4)
        swapped = ["zz" if lab == "neg" else "aa" for lab in y]
        a = train_svm(X, y, seed=5)
        b = train_svm(X, swapped, seed=5)
        assert np.array_equal(b.weights, -a.weights)
        assert b.bias == -a.bias
        assert b.label_order == ("aa", "zz")

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((150, 10))
        y = ["p" if v else "q" for v in rng.integers(0, 2, 150)]
        model = train_svm(X, y, C=0.5, seed=7)
        diffs = np.diff(np.array(model.objective_path))
        assert (diffs <= 1e-9).all()

    def test_determinism(self):
        X, y = clouds(seed=8)
        a = train_svm(X, y, seed=9)
        b = train_svm(X, y, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.passes == b.passes

    def test_sparse_input(self):
        X, y = clouds(seed=10)  # separable
        assert predict_svm(train_svm(sp.csr_matrix(X), y, seed=11),
                           sp.csr_matrix(X)) == y
        for X, y in ((X, y), sparse_problem(21)):
            Xs = sp.csr_matrix(X)
            Xd = Xs.toarray()
            a = train_svm(Xd, y, seed=11)
            b = train_svm(Xs, y, seed=11)
            assert b.passes == a.passes
            assert b.active_path == a.active_path
            assert np.abs(b.weights - a.weights).max() <= 1e-12
            assert abs(b.bias - a.bias) <= 1e-12
            assert predict_svm(b, Xs) == predict_svm(a, Xd)

    def test_sparse_formats_give_the_csr_model(self):
        X, y = sparse_problem(21)
        X = sp.csr_matrix(X.astype(np.float32).astype(np.float64))
        want = train_svm(X, y, seed=11)
        as_int64 = sp.csr_matrix((X.data, X.indices.astype(np.int64),
                                  X.indptr.astype(np.int64)), shape=X.shape)
        for other in (X.tocsc(), X.tocoo(), X.astype(np.float32),
                      as_int64):
            got = train_svm(other, y, seed=11)
            assert got.passes == want.passes
            assert got.active_path == want.active_path
            assert np.array_equal(got.weights, want.weights)
            assert got.bias == want.bias

    def test_duplicate_entries_train_the_dense_model(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((60, 8))
        dense[rng.random((60, 8)) < 0.5] = 0.0
        y = ["pos" if s >= 0 else "neg"
             for s in dense @ rng.standard_normal(8)]
        # each stored value as two equal entries of its cell
        r, c = np.nonzero(dense)
        indptr = np.concatenate([[0], np.cumsum(2 * np.bincount(r))])
        X = sp.csr_matrix((np.repeat(dense[r, c] / 2.0, 2), np.repeat(c, 2),
                           indptr), shape=dense.shape)
        assert X.nnz == 2 * len(r) == 480
        stored = X.copy()
        a = train_svm(dense, y, seed=1)
        b = train_svm(X, y, seed=1)
        assert b.passes == a.passes
        assert np.abs(b.weights - a.weights).max() <= 1e-12
        assert abs(b.bias - a.bias) <= 1e-12
        assert X.nnz == stored.nnz
        assert (X.data == stored.data).all()
        assert (X.indices == stored.indices).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
    def test_non_finite_input_names_row_and_feature(self, value, form):
        X, y = clouds(seed=10)
        X[7, 1] = value
        with pytest.raises(NonFiniteValueError) as err:
            train_svm(form(X), y, seed=11)
        assert (err.value.row, err.value.feature) == (7, 1)
        assert "row 7, feature 1" in str(err.value)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            train_svm(np.ones((4, 2)), ["A"] * 4)

    def test_three_classes_rejected(self):
        with pytest.raises(SingleClassError):
            train_svm(np.ones((3, 2)), ["A", "B", "C"])

    def test_bad_c_rejected(self):
        X, y = clouds(seed=12)
        with pytest.raises(ValueError):
            train_svm(X, y, C=0.0)

    def test_zero_passes_rejected(self):
        X, y = clouds(seed=12)
        with pytest.raises(ValueError, match="max_iter"):
            train_svm(X, y, max_iter=0)

    def test_no_convergence_payload(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((60, 4))
        y = ["p" if v else "q" for v in rng.integers(0, 2, 60)]
        for form in (np.asarray, sp.csr_matrix):
            with pytest.raises(NoConvergenceError) as err:
                train_svm(form(X), y, tol=1e-12, max_iter=2, seed=14)
            assert isinstance(err.value.best, SvmModel)
            assert err.value.best.weights.shape == (4,)
            assert err.value.best.weights.dtype == np.float64


class TestPredict:
    def model(self):
        return SvmModel(weights=np.array([1.0, 0.0]), bias=0.0, C=1.0,
                        label_order=("neg", "pos"))

    def test_positive_halfspace(self):
        assert predict_svm(self.model(), np.array([[2.0, 5.0]])) == ["pos"]

    def test_negative_halfspace(self):
        assert predict_svm(self.model(), np.array([[-2.0, 5.0]])) == ["neg"]

    def test_zero_score_goes_positive(self):
        assert predict_svm(self.model(), np.array([[0.0, 0.0]])) == ["pos"]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            predict_svm(self.model(), np.ones((2, 3)))

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
    def test_non_finite_input_names_row_and_feature(self, form):
        # a NaN score would fail ">= 0" and label the row "neg"
        X = form(np.array([[np.nan, 1.0], [np.inf, -np.inf]]))
        for predict in (decision_scores, predict_svm):
            with pytest.raises(NonFiniteValueError,
                               match="nan at row 0, feature 0") as err:
                predict(self.model(), X)
            assert (err.value.row, err.value.feature) == (0, 0)


def test_json_roundtrip():
    X, y = clouds(seed=15)
    model = train_svm(X, y, seed=16)
    back = SvmModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert back.label_order == model.label_order
    assert back.passes == model.passes == len(model.objective_path)
    assert back.pg_gap == model.pg_gap < 1e-4
    assert back.objective_path == model.objective_path
    assert back.active_path == model.active_path
    assert len(model.active_path) == model.passes
    doc = model.to_dict()
    del doc["activePath"]
    assert SvmModel.from_dict(doc).active_path == ()
    assert predict_svm(back, X) == predict_svm(model, X)


def reference_train(X, y, C=1.0, tol=1e-4, max_iter=100_000, seed=0):
    """The solver before shrinking: every pass visits every example.

    Kept as the reference for the shrinking loop; returns (weights, bias,
    alpha, final dual objective).
    """
    pos = sorted(set(y))[1]
    yv = np.asarray([1.0 if lab == pos else -1.0 for lab in y])
    n = X.shape[0]
    sparse = sp.issparse(X)
    if sparse:
        Xc = X.tocsr()
        indptr, indices, data = Xc.indptr, Xc.indices, Xc.data
        sq = np.asarray(Xc.multiply(Xc).sum(axis=1)).ravel() + 1.0
    else:
        Xd = np.ascontiguousarray(X, dtype=np.float64)
        sq = np.einsum("ij,ij->i", Xd, Xd) + 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    alpha = np.zeros(n)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(max_iter):
        max_pg = -np.inf
        min_pg = np.inf
        for i in rng.permutation(n):
            yi = yv[i]
            if sparse:
                lo, hi = indptr[i], indptr[i + 1]
                cols = indices[lo:hi]
                vals = data[lo:hi]
                f = float(vals @ w[cols]) + b
            else:
                xi = Xd[i]
                f = float(xi @ w) + b
            G = yi * f - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(G, 0.0)
            elif a >= C:
                pg = max(G, 0.0)
            else:
                pg = G
            max_pg = max(max_pg, pg)
            min_pg = min(min_pg, pg)
            if pg != 0.0:
                new = min(max(a - G / sq[i], 0.0), C)
                d = new - a
                if d != 0.0:
                    alpha[i] = new
                    step = d * yi
                    if sparse:
                        w[cols] += step * vals
                    else:
                        w += step * xi
                    b += step
        if max_pg - min_pg < tol:
            break
    else:
        raise AssertionError("reference did not converge")
    return w, b, alpha, 0.5 * (float(w @ w) + b * b) - float(alpha.sum())


def noisy_clouds(seed):
    """Overlapping clouds, a tenth of the labels flipped."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-1.0, 1.0, (100, 5)),
                   rng.normal(1.0, 1.0, (100, 5))])
    y = ["neg"] * 100 + ["pos"] * 100
    for i in rng.choice(200, 20, replace=False):
        y[i] = "pos" if y[i] == "neg" else "neg"
    return X, y


SHRINK_CASES = [
    pytest.param(*clouds(n=150, gap=1.0, seed=20), 1.0, id="dense-clouds"),
    pytest.param(*sparse_problem(21), 1.0, id="sparse-csr"),
    pytest.param(*noisy_clouds(22), 0.05, id="label-noise-small-C"),
]


class TestShrinking:
    @pytest.mark.parametrize("X, y, C", SHRINK_CASES)
    def test_matches_reference(self, X, y, C):
        w, b, alpha, objective = reference_train(X, y, C=C, seed=23)
        if C < 1.0:  # the case meant to shrink examples held at alpha = C
            assert (alpha >= C).sum() >= 10
        model = train_svm(X, y, C=C, seed=23)
        assert model.pg_gap < 1e-4
        assert abs(model.objective_path[-1] - objective) <= \
            1e-6 * abs(objective)
        ref = np.asarray(X @ w).ravel() + b
        got = decision_scores(model, X)
        firm = np.abs(ref) >= 1e-3
        assert ((got[firm] >= 0) == (ref[firm] >= 0)).all()

    @pytest.mark.parametrize("X, y, C", SHRINK_CASES)
    def test_active_set_shrinks_then_stops_on_all(self, X, y, C):
        model = train_svm(X, y, C=C, seed=23)
        n = X.shape[0]
        assert len(model.active_path) == model.passes
        assert min(model.active_path) < n
        assert model.active_path[0] == model.active_path[-1] == n

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5, 8, 13])
    def test_truncated_model_is_finite_json(self, max_iter):
        X, y = noisy_clouds(24)
        with pytest.raises(NoConvergenceError) as err:
            train_svm(X, y, C=0.05, max_iter=max_iter, seed=25)
        best = err.value.best
        assert len(best.active_path) == best.passes == max_iter
        json.dumps(best.to_dict(), allow_nan=False)
