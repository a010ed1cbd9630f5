import json

import numpy as np
import pytest
import scipy.sparse as sp

from ctfidf.exceptions import (
    DimensionMismatchError,
    NoConvergenceError,
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
        X, y = clouds(seed=10)
        Xs = sp.csr_matrix(X)
        a = train_svm(X, y, seed=11)
        b = train_svm(Xs, y, seed=11)
        assert np.allclose(a.weights, b.weights, atol=1e-12)
        assert predict_svm(b, Xs) == y

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
        with pytest.raises(NoConvergenceError) as err:
            train_svm(X, y, tol=1e-12, max_iter=2, seed=14)
        assert isinstance(err.value.best, SvmModel)
        assert err.value.best.weights.shape == (4,)


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
    assert predict_svm(back, X) == predict_svm(model, X)
