import json
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctfidf import tree
from ctfidf.exceptions import DimensionMismatchError, SingleClassError
from ctfidf.tree import (
    CCP_ALPHA_GRID,
    DecisionTreeModel,
    TreeParams,
    feature_importance,
    predict_dtree,
    train_dtree,
)


def separable_1d():
    X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
    y = ["A", "A", "A", "B", "B", "B"]
    return X, y


def noisy_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 6))
    y = ["pos" if x[0] + 0.5 * x[1] + 0.3 * rng.standard_normal() > 0
         else "neg" for x in X]
    return X, y


class TestTraining:
    def test_separable_stump(self):
        X, y = separable_1d()
        model = train_dtree(X, y, cv_folds=2, seed=0)
        assert len(model.nodes) == 3
        root = model.nodes[0]
        assert root.feature == 0
        assert root.threshold == 0.0  # midpoint of -0.5 and 0.5
        assert predict_dtree(model, X) == y

    def test_constant_features_give_majority_stump(self):
        X = np.ones((9, 4))
        y = ["A"] * 6 + ["B"] * 3
        model = train_dtree(X, y, cv_folds=2, seed=0)
        assert len(model.nodes) == 1
        assert set(predict_dtree(model, X)) == {"A"}

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            train_dtree(np.ones((4, 2)), ["A"] * 4, cv_folds=2)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            train_dtree(np.ones((4, 2)), ["A", "B"], cv_folds=2)

    def test_class_count_conservation(self):
        X, y = noisy_data()
        model = train_dtree(X, y, TreeParams(ccp_alpha=0.0), seed=1)
        for node in model.nodes:
            if node.is_leaf:
                continue
            left = model.nodes[node.left]
            right = model.nodes[node.right]
            assert (left.class_counts + right.class_counts
                    == node.class_counts).all()
            assert node.class_counts.sum() == (left.class_counts.sum()
                                               + right.class_counts.sum())

    def test_gini_range_and_strict_decrease(self):
        X, y = noisy_data(seed=2)
        model = train_dtree(X, y, TreeParams(ccp_alpha=0.0), seed=1)
        for node in model.nodes:
            assert 0.0 <= node.impurity <= 0.5
            if node.is_leaf:
                continue
            left = model.nodes[node.left]
            right = model.nodes[node.right]
            nn = node.class_counts.sum()
            weighted = (left.class_counts.sum() * left.impurity
                        + right.class_counts.sum() * right.impurity) / nn
            assert weighted < node.impurity

    def test_max_depth_respected(self):
        X, y = noisy_data(seed=3)
        model = train_dtree(X, y, TreeParams(max_depth=2, ccp_alpha=0.0),
                            seed=1)

        def depth(i, d=0):
            n = model.nodes[i]
            if n.is_leaf:
                return d
            return max(depth(n.left, d + 1), depth(n.right, d + 1))

        assert depth(0) <= 2

    def test_sparse_and_dense_agree_exactly(self):
        rng = np.random.default_rng(7)
        Xs = sp.random(80, 30, density=0.25,
                       random_state=np.random.RandomState(7), format="csr")
        y = ["p" if v else "q" for v in rng.integers(0, 2, 80)]
        dense = train_dtree(Xs.toarray(), y, TreeParams(ccp_alpha=0.0), seed=0)
        sparse = train_dtree(Xs, y, TreeParams(ccp_alpha=0.0), seed=0)
        assert len(dense.nodes) == len(sparse.nodes)
        for a, b in zip(dense.nodes, sparse.nodes):
            assert a.feature == b.feature
            assert a.threshold == b.threshold
            assert (a.class_counts == b.class_counts).all()

    def test_negative_sparse_values(self):
        # implicit zeros must sort between negative and positive entries
        X = sp.csr_matrix(np.array([
            [-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0],
            [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        y = ["A", "A", "A", "B", "B", "B"]
        model = train_dtree(X, y, TreeParams(ccp_alpha=0.0), seed=0)
        assert predict_dtree(model, X) == y
        assert model.nodes[0].threshold == 0.5

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("values, threshold", [
        ([0.0, 0.0, 0.0, 1.0, 2.0, 3.0], 0.5),
        ([-3.0, -2.0, -1.0, 0.0, 0.0, 0.0], -0.5),
    ])
    def test_stored_zeros_match_dense(self, values, threshold, fmt):
        # the first zero of the column is stored explicitly
        first_zero = values.index(0.0)
        rows = [i for i, v in enumerate(values) if v != 0.0 or i == first_zero]
        X = sp.coo_matrix(([values[i] for i in rows], (rows, [0] * len(rows))),
                          shape=(6, 1)).asformat(fmt)
        assert X.nnz == len(rows)
        y = ["A", "A", "A", "B", "B", "B"]
        dense = train_dtree(np.array(values)[:, None], y,
                            TreeParams(ccp_alpha=0.0))
        sparse = train_dtree(X, y, TreeParams(ccp_alpha=0.0))
        assert dense.nodes[0].threshold == threshold
        assert sparse.nodes[0].threshold == threshold
        assert predict_dtree(sparse, X) == y
        assert X.nnz == len(rows)  # the caller's matrix is left as it was

    def test_determinism(self):
        X, y = noisy_data(seed=5)
        a = train_dtree(X, y, cv_folds=3, seed=9)
        b = train_dtree(X, y, cv_folds=3, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_heavy_pruning_yields_stump(self):
        X, y = noisy_data(seed=6)
        model = train_dtree(X, y, TreeParams(ccp_alpha=10.0), seed=1)
        assert len(model.nodes) == 1

    def test_cv_scores_recorded_for_grid(self):
        X, y = noisy_data(seed=8)
        model = train_dtree(X, y, cv_folds=3, seed=4)
        assert set(model.cv_mean_f1) == set(CCP_ALPHA_GRID)
        assert model.chosen_alpha in CCP_ALPHA_GRID
        best = max(model.cv_mean_f1.values())
        assert model.cv_mean_f1[model.chosen_alpha] == best


class TestPredict:
    def test_boundary_value_goes_left(self):
        X, y = separable_1d()
        model = train_dtree(X, y, cv_folds=2, seed=0)
        thr = model.nodes[0].threshold
        left_label = model.nodes[model.nodes[0].left].predicted_label
        assert predict_dtree(model, np.array([[thr]])) == [left_label]

    def test_stump_predicts_majority_everywhere(self):
        X = np.ones((5, 2))
        y = ["A", "A", "A", "B", "B"]
        model = train_dtree(X, y, cv_folds=2, seed=0)
        pred = predict_dtree(model, np.random.default_rng(0)
                             .standard_normal((10, 2)))
        assert pred == ["A"] * 10

    def test_training_data_through_unpruned_tree(self):
        X, y = noisy_data(seed=10)
        model = train_dtree(X, y, TreeParams(ccp_alpha=0.0), seed=1)
        assert predict_dtree(model, X) == y

    def test_feature_count_mismatch(self):
        X, y = separable_1d()
        model = train_dtree(X, y, cv_folds=2, seed=0)
        with pytest.raises(DimensionMismatchError):
            predict_dtree(model, np.empty((2, 0)))


class TestImportance:
    def test_single_informative_feature(self):
        X, y = separable_1d()
        model = train_dtree(X, y, cv_folds=2, seed=0)
        report = feature_importance(model, ["only"])
        assert report.ranking == (("only", 1.0),)

    def test_stump_empty_ranking(self):
        X = np.ones((5, 2))
        y = ["A", "A", "A", "B", "B"]
        model = train_dtree(X, y, cv_folds=2, seed=0)
        assert feature_importance(model, ["a", "b"]).ranking == ()

    def test_sums_to_one_and_sorted(self):
        X, y = noisy_data(seed=11)
        model = train_dtree(X, y, TreeParams(ccp_alpha=0.0), seed=1)
        names = [f"f{j}" for j in range(X.shape[1])]
        ranking = feature_importance(model, names).ranking
        values = [v for _, v in ranking]
        assert sum(values) == pytest.approx(1.0, abs=1e-12)
        assert values == sorted(values, reverse=True)
        assert all(v > 0 for v in values)

    def test_informative_feature_ranks_first(self):
        X, y = noisy_data(seed=12)
        model = train_dtree(X, y, TreeParams(ccp_alpha=0.0), seed=1)
        names = [f"f{j}" for j in range(X.shape[1])]
        assert feature_importance(model, names).ranking[0][0] == "f0"


def gini_gain(left: list[int], right: list[int], n: int,
              parent_gini: float) -> float:
    """The kernel's gain expression, evaluated one candidate at a time."""
    nl, nr = float(sum(left)), float(sum(right))
    sum_sq_l = sum_sq_r = 0.0
    for lc, rc in zip(left, right):
        sum_sq_l += float(lc) * float(lc)
        sum_sq_r += float(rc) * float(rc)
    gini_l = 1.0 - sum_sq_l / (nl * nl)
    gini_r = 1.0 - sum_sq_r / (nr * nr)
    return parent_gini - (nl * gini_l + nr * gini_r) / n


def exhaustive_root_split(D: np.ndarray, y: list[str], parent_gini: float):
    """First best (feature, threshold) over every distinct-value boundary."""
    labels = sorted(set(y))
    best = (0.0, None, None)
    for j in range(D.shape[1]):
        values = sorted(set(D[:, j].tolist()))
        for lo, hi in zip(values, values[1:]):
            left = [sum(1 for x, lab in zip(D[:, j], y)
                        if x <= lo and lab == c) for c in labels]
            right = [y.count(c) - lc for c, lc in zip(labels, left)]
            gain = gini_gain(left, right, len(y), parent_gini)
            if gain > best[0]:
                best = (gain, j, (lo + hi) / 2.0)
    return best[1], best[2]


@st.composite
def small_matrices(draw):
    """Dense matrix, CSR copy with some zeros stored, and labels."""
    n = draw(st.integers(2, 12))
    f = draw(st.integers(1, 4))
    cell = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.0, 1.0, 2.0])
    D = np.array(draw(st.lists(st.lists(cell, min_size=f, max_size=f),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):
        D[:, draw(st.integers(0, f - 1))] = 0.0
    stored = np.array(draw(st.lists(st.booleans(), min_size=n * f,
                                    max_size=n * f))).reshape(n, f)
    r, c = np.nonzero((D != 0.0) | stored)
    X = sp.csr_matrix((D[r, c], (r, c)), shape=(n, f))
    y = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    return D, X, y


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_dense_and_csr_grow_the_exhaustive_tree(data):
    D, X, y = data
    assume(len(set(y)) >= 2)
    dense = train_dtree(D, y, TreeParams(ccp_alpha=0.0)).to_dict()
    assert train_dtree(X, y, TreeParams(ccp_alpha=0.0)).to_dict() == dense
    with mock.patch.object(tree, "_SCORE_CAP", 1):  # one feature per group
        assert train_dtree(X, y, TreeParams(ccp_alpha=0.0)).to_dict() == dense
    root = dense["nodes"][0]
    assert (root["featureIndex"], root["threshold"]) == exhaustive_root_split(
        D, y, root["impurity"])


def test_json_roundtrip():
    X, y = noisy_data(seed=13)
    model = train_dtree(X, y, cv_folds=3, seed=2)
    back = DecisionTreeModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert back.cv_mean_f1 == model.cv_mean_f1
    assert set(back.cv_mean_f1) == set(CCP_ALPHA_GRID)
    Xq = np.random.default_rng(1).standard_normal((50, X.shape[1]))
    assert predict_dtree(back, Xq) == predict_dtree(model, Xq)
