import hashlib
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctfidf import tree
from ctfidf.evaluation import confusion, kfold_indices, metrics
from ctfidf.exceptions import (
    DimensionMismatchError,
    NonFiniteValueError,
    SingleClassError,
    UnknownPositiveLabelError,
    as_feature_matrix,
)
from ctfidf.tree import (
    CCP_ALPHA_GRID,
    DecisionTreeModel,
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
        model = train_dtree(X, y, ccp_alpha=0.0, seed=1)
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
        model = train_dtree(X, y, ccp_alpha=0.0, seed=1)
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
        model = train_dtree(X, y, max_depth=2, ccp_alpha=0.0,
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
        dense = train_dtree(Xs.toarray(), y, ccp_alpha=0.0, seed=0)
        sparse = train_dtree(Xs, y, ccp_alpha=0.0, seed=0)
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
        model = train_dtree(X, y, ccp_alpha=0.0, seed=0)
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
                            ccp_alpha=0.0)
        sparse = train_dtree(X, y, ccp_alpha=0.0)
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
        model = train_dtree(X, y, ccp_alpha=10.0, seed=1)
        assert len(model.nodes) == 1

    def test_exact_tie_prunes(self):
        # root cost 0.5 + alpha against two pure leaves' 2 * alpha: equal at
        # alpha = 0.5, where the smaller subtree wins
        X, y = separable_1d()
        model = train_dtree(X, y, ccp_alpha=0.5)
        assert len(model.nodes) == 1

    def test_rounding_size_gain_kept_at_alpha_zero(self):
        # the cut at -1.5 leaves each side a, a, b: exact gain 0, float
        # gain 1.1e-16; growth and pruning must read it alike
        X = np.array([[-2.0], [-2.0], [-2.0], [-1.0], [-1.0], [-1.0]])
        y = list("aabaab")
        model = train_dtree(X, y, ccp_alpha=0.0)
        assert (model.nodes[0].feature, model.nodes[0].threshold) == (0, -1.5)
        assert len(model.nodes) == 3

    def test_cv_scores_recorded_for_grid(self):
        X, y = noisy_data(seed=8)
        model = train_dtree(X, y, cv_folds=3, seed=4)
        assert set(model.cv_mean_f1) == set(CCP_ALPHA_GRID)
        assert model.chosen_alpha in CCP_ALPHA_GRID
        best = max(model.cv_mean_f1.values())
        assert model.cv_mean_f1[model.chosen_alpha] == best

    @pytest.mark.parametrize("positive", [None, "ham"])
    def test_cv_scores_match_refit_folds(self, positive):
        # the CV folds predict on their grown trees through a leaf set; the
        # reference refits each fold and predicts on its collapsed copy
        X, y = noisy_data(seed=8)
        y = ["ham" if lab == "pos" else "spam" for lab in y]
        model = train_dtree(X, y, cv_folds=5, seed=4, positive_label=positive)
        folds = kfold_indices(y, 5, 4)
        for a in CCP_ALPHA_GRID:
            scores = []
            for te in folds:
                tr = np.setdiff1d(np.arange(len(y)), te)
                refit = train_dtree(X[tr], [y[i] for i in tr],
                                    ccp_alpha=a)
                cm = confusion([y[i] for i in te], predict_dtree(refit, X[te]),
                               positive or "spam")
                scores.append(metrics(cm).f1)
            assert model.cv_mean_f1[a] == float(np.mean(scores))

    def test_nested_list_input(self):
        X, y = noisy_data(seed=14, n=40)
        from_list = train_dtree(X.tolist(), y, ccp_alpha=0.0)
        assert from_list.to_dict() == train_dtree(
            X, y, ccp_alpha=0.0).to_dict()
        assert predict_dtree(from_list, X.tolist()) == y

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_non_finite_rejected(self, fmt, bad):
        X = np.array([[0.5, 1.0], [1.0, 0.0], [0.5, 0.5], [2.0, 0.0]])
        X[2, 1] = bad
        X = sp.csr_matrix(X) if fmt == "csr" else X
        with pytest.raises(NonFiniteValueError,
                           match="at row 2, feature 1") as err:
            train_dtree(X, ["A", "B", "A", "B"], ccp_alpha=0.0)
        assert (err.value.row, err.value.feature) == (2, 1)

    def test_unknown_positive_label_rejected(self):
        X, y = separable_1d()
        with pytest.raises(UnknownPositiveLabelError, match="'C' not among"):
            train_dtree(X, y, cv_folds=2, positive_label="C")


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
        model = train_dtree(X, y, ccp_alpha=0.0, seed=1)
        assert predict_dtree(model, X) == y

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_non_finite_rejected(self, fmt):
        X, y = separable_1d()
        model = train_dtree(X, y, cv_folds=2, seed=0)
        Xq = np.array([[1.0], [-1.0], [np.nan]])
        Xq = sp.csr_matrix(Xq) if fmt == "csr" else Xq
        with pytest.raises(NonFiniteValueError, match="row 2, feature 0"):
            predict_dtree(model, Xq)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_non_finite_two_feature_rows_rejected(self, fmt):
        X = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 1.5], [2.5, 0.0]])
        model = train_dtree(X, ["A", "B", "A", "B"],
                            ccp_alpha=0.0)
        Xq = np.array([[np.nan, 1.0], [np.inf, -np.inf]])
        Xq = sp.csr_matrix(Xq) if fmt == "csr" else Xq
        with pytest.raises(NonFiniteValueError,
                           match="nan at row 0, feature 0"):
            predict_dtree(model, Xq)

    def test_feature_count_mismatch(self):
        X, y = separable_1d()
        model = train_dtree(X, y, cv_folds=2, seed=0)
        with pytest.raises(DimensionMismatchError):
            predict_dtree(model, np.empty((2, 0)))


class TestImportance:
    def test_single_informative_feature(self):
        X, y = separable_1d()
        model = train_dtree(X, y, cv_folds=2, seed=0)
        assert feature_importance(model, ["only"]) == (("only", 1.0),)

    def test_stump_empty_ranking(self):
        X = np.ones((5, 2))
        y = ["A", "A", "A", "B", "B"]
        model = train_dtree(X, y, cv_folds=2, seed=0)
        assert feature_importance(model, ["a", "b"]) == ()

    def test_sums_to_one_and_sorted(self):
        X, y = noisy_data(seed=11)
        model = train_dtree(X, y, ccp_alpha=0.0, seed=1)
        names = [f"f{j}" for j in range(X.shape[1])]
        ranking = feature_importance(model, names)
        values = [v for _, v in ranking]
        assert sum(values) == pytest.approx(1.0, abs=1e-12)
        assert values == sorted(values, reverse=True)
        assert all(v > 0 for v in values)

    def test_informative_feature_ranks_first(self):
        X, y = noisy_data(seed=12)
        model = train_dtree(X, y, ccp_alpha=0.0, seed=1)
        names = [f"f{j}" for j in range(X.shape[1])]
        assert feature_importance(model, names)[0][0] == "f0"


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
    dense = train_dtree(D, y, ccp_alpha=0.0).to_dict()
    assert train_dtree(X, y, ccp_alpha=0.0).to_dict() == dense
    with mock.patch.object(tree, "_SCORE_CAP", 1):  # one feature per group
        assert train_dtree(X, y, ccp_alpha=0.0).to_dict() == dense
    root = dense["nodes"][0]
    assert (root["featureIndex"], root["threshold"]) == exhaustive_root_split(
        D, y, root["impurity"])


@st.composite
def continuous_matrices(draw):
    """Dense matrix of continuous draws, so no nonzero value repeats, with
    a share of its cells zero; its CSR copy; and labels, either drawn
    evenly from the classes or all one class but a row or two."""
    n = draw(st.integers(2, 40))
    f = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 3))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.standard_normal((n, f))
    D[rng.random((n, f)) < zero_share] = 0.0
    if draw(st.booleans()):  # many cuts to score: counted by running sums
        y = draw(st.lists(st.sampled_from("abc"[:n_classes]), min_size=n,
                          max_size=n))
    else:  # few cuts: counted by position
        y = ["a"] * n
        for r in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=2)):
            y[r] = draw(st.sampled_from("bc"[:n_classes - 1]))
    return D, sp.csr_matrix(D), y


@settings(max_examples=150, deadline=None)
@given(continuous_matrices(), st.sampled_from([tree._SCORE_CAP, 1]))
def every_split_is_the_exhaustive_best(data, cap):
    # distinct values make one-entry value runs, so the kernel's
    # same-class-stretch skip applies at every depth
    D, X, y = data
    assume(len(set(y)) >= 2)
    with mock.patch.object(tree, "_SCORE_CAP", cap):
        dense = train_dtree(D, y, ccp_alpha=0.0).to_dict()
        assert train_dtree(X, y, ccp_alpha=0.0).to_dict() == dense
    nodes = dense["nodes"]
    stack = [(0, np.arange(len(y)))]
    while stack:
        i, rows = stack.pop()
        node = nodes[i]
        if node["leftChild"] is None:
            continue
        assert (node["featureIndex"], node["threshold"]) == \
            exhaustive_root_split(D[rows], [y[r] for r in rows],
                                  node["impurity"])
        goes_left = D[rows, node["featureIndex"]] <= node["threshold"]
        stack.append((node["leftChild"], rows[goes_left]))
        stack.append((node["rightChild"], rows[~goes_left]))


def test_every_split_is_the_exhaustive_best():
    # the property must reach both ways of counting a class at the cuts
    with mock.patch.object(tree, "_count_by_position",
                           wraps=tree._count_by_position) as by_position, \
            mock.patch.object(tree, "_count_running",
                              wraps=tree._count_running) as running:
        every_split_is_the_exhaustive_best()
    assert by_position.called and running.called


@pytest.mark.parametrize("drop", [0.5, 0.95, 0.005])
def test_subset_across_take_blocks_matches_one_gather(drop):
    # _subset and _take work tree._TAKE_BLOCK entries at a time; over
    # entries spanning several blocks (exactly two for the 512-row dense
    # matrix) they must give what one whole gather gives. 0.005 takes
    # the boolean-mask copy.
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((512, 256))
    # features from 1-2 stored values (often all dropped) to nearly full
    density = np.r_[np.full(8, 0.002), rng.uniform(0.0, 1.0, 248)]
    sparse = sp.csc_matrix(rng.standard_normal((1100, 256))
                           * (rng.random((1100, 256)) < density))
    assert 512 * 256 == 2 * tree._TAKE_BLOCK < sparse.nnz
    for X in (dense, sparse):
        classes = rng.integers(-3, 4, X.shape[0]).astype(np.int8)
        entries = tree._sorted_entries(X)
        entries = (*entries, tree._take(classes, entries[3]))
        assert np.array_equal(entries[-1], classes[entries[3]])
        keep = rng.random(entries[2].shape[0]) >= drop
        feat, end, *per_entry = entries
        at = np.flatnonzero(keep)
        end = np.searchsorted(at, end)
        stored = np.diff(end, prepend=0) > 0
        expected = (feat[stored], end[stored], *(a[at] for a in per_entry))
        got = tree._subset(entries, keep)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e)


@pytest.mark.parametrize("left_share", [0.8, 0.2, 0.995, 0.005])
def test_compact_matches_subset_across_take_blocks(left_share):
    # a split by row, as _grow makes it, over entries spanning several
    # tree._TAKE_BLOCKs: the larger child, compacted into the node's own
    # arrays, must equal what _subset gives, array for array. It is on
    # the left at 0.8 and 0.995, on the right at 0.2 and 0.005; 0.995 and
    # 0.005 drop few entries, which takes the boolean-mask copy and
    # leaves views of the node's arrays, and the others shrink them.
    rng = np.random.default_rng(12)
    dense = rng.standard_normal((512, 300))
    density = np.r_[np.full(8, 0.002), rng.uniform(0.0, 1.0, 292)]
    sparse = sp.csc_matrix(rng.standard_normal((1100, 300))
                           * (rng.random((1100, 300)) < density))
    assert 2 * tree._TAKE_BLOCK < 512 * 300 < sparse.nnz
    for X in (dense, sparse):
        classes = rng.integers(-3, 4, X.shape[0]).astype(np.int8)
        entries = tree._sorted_entries(X)
        entries = (*entries, tree._take(classes, entries[3]))
        goes_left = rng.random(X.shape[0]) < left_share
        keep = tree._take(goes_left, entries[3])
        larger = keep if 2 * np.count_nonzero(keep) > keep.shape[0] else ~keep
        expected = tree._subset(entries, larger)
        values = entries[2]
        got = tree._compact(entries, larger)
        assert np.shares_memory(got[2], values)
        assert_same_entries(got, expected)
        # the child splits again, in the same arrays
        keep = tree._take(rng.random(X.shape[0]) < 0.6, got[3])
        expected = tree._subset(got, keep)
        again = tree._compact(got, keep)
        assert np.shares_memory(again[2], values)
        assert_same_entries(again, expected)


def assert_same_entries(got, expected):
    assert len(got) == len(expected) == 5
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and np.array_equal(g, e)


def test_fit_memory_is_one_node_and_its_smaller_child():
    # a fit at a fixed alpha with a balanced root split. The presort
    # becomes the root: 13 bytes an entry with its classes (float64
    # value, int32 row, int8 class). The split adds the row filter and
    # its negation (1 byte an entry each) and the smaller child (at most
    # half the root), 21.5 bytes an entry in all; the larger child takes
    # the root's arrays. Copying both children beside the root needs 28,
    # and the presort alone used to hold 28 (a transposed copy, an 8-byte
    # sort order, the sorted values and the int32 rows).
    rng = np.random.default_rng(5)
    X = rng.random((4000, 300))
    y = ["pos" if v > 0.5 else "neg" for v in X[:, 0]]
    tracemalloc.start()
    try:
        model = train_dtree(X, y, ccp_alpha=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.nodes) == 3
    assert peak <= 23 * X.size


@pytest.mark.parametrize("fmt", ["dense", "csr"])
def test_more_labels_than_int8_holds(fmt):
    # 130 labels, two rows each: the classes that sorted entries carry
    # must not wrap around at 127. Equal gains tie to the lowest cut, so
    # the tree peels one label off at a time and needs the depth.
    X = np.arange(260.0)[:, None]
    y = [f"c{i // 2:03d}" for i in range(260)]
    model = train_dtree(sp.csr_matrix(X) if fmt == "csr" else X, y,
                        max_depth=200, ccp_alpha=0.0)
    assert predict_dtree(model, X) == y
    assert len(model.nodes) == 2 * 130 - 1
    assert [n.class_counts.sum() for n in model.nodes if n.is_leaf] == \
        [2] * 130


def golden_data():
    """1,500 x 40 standard normals and labels from a noisy linear rule of
    the first eight features, made without BLAS, so that CV grows bushy,
    balanced trees."""
    rng = np.random.default_rng(20261019)
    X = rng.standard_normal((1500, 40))
    score = ((X[:, :8] * np.linspace(1.0, -1.0, 8)).sum(axis=1)
             + 0.8 * rng.standard_normal(1500))
    return X, ["pos" if s > 0 else "neg" for s in score]


def test_golden_tree():
    # a bushy fit, pinned: a faster split kernel must grow it bit for bit
    X, y = golden_data()
    model = train_dtree(X, y)
    assert (len(model.nodes), model.chosen_alpha) == (281, 1e-3)
    digest = hashlib.sha256(json.dumps(model.to_dict(), sort_keys=True)
                            .encode()).hexdigest()
    assert digest == ("8a848a8e8923224f820d03cf1fc409ba"
                      "959104af23b7cfa7ddc67dfcac4e5b7e")


def grown_tree(D: np.ndarray, y: list[str]) -> list[tree.TreeNode]:
    labels = sorted(set(y))
    y_idx = np.array([labels.index(lab) for lab in y])
    X = as_feature_matrix(D, "csc")
    return tree._grow(X, tree._sorted_entries(X), np.arange(len(y)), y_idx,
                      labels, max_depth=30)


def exact_prune(nodes, alpha: float):
    """Exact optimum of R(T) + alpha |leaves(T)|, the internal nodes cut in
    the smallest subtree reaching it, each node's own cost, and the closest
    any node's comparison comes to a tie.

    R(t) = (n_t^2 - sum_c c^2) / (n_t N), from the integer class counts.
    """
    n_total = int(nodes[0].class_counts.sum())
    own = []
    for nd in nodes:
        counts = [int(c) for c in nd.class_counts]
        n = sum(counts)
        own.append(Fraction(n * n - sum(c * c for c in counts), n * n_total)
                   + Fraction(alpha))
    best = list(own)
    cut, margin = set(), None
    for i in range(len(nodes) - 1, -1, -1):
        nd = nodes[i]
        if nd.is_leaf:
            continue
        below = best[nd.left] + best[nd.right]
        gap = abs(own[i] - below)
        margin = gap if margin is None else min(margin, gap)
        if own[i] <= below:
            cut.add(i)
        else:
            best[i] = below
    return best[0], cut, own, margin


def subtree_leaves(nodes, cut) -> list[int]:
    out, stack = [], [0]
    while stack:
        i = stack.pop()
        if nodes[i].is_leaf or i in cut:
            out.append(i)
        else:
            stack.extend((nodes[i].left, nodes[i].right))
    return sorted(out)


@settings(max_examples=300, deadline=None)
@given(small_matrices(), st.one_of(st.sampled_from(CCP_ALPHA_GRID),
                                   st.floats(0.0, 0.5)))
def test_pruned_is_the_exact_smallest_minimizing_subtree(data, alpha):
    D, _, y = data
    assume(len(set(y)) >= 2)
    nodes = grown_tree(D, y)
    optimum, oracle_cut, own, margin = exact_prune(nodes, alpha)
    cut = tree._pruned(nodes, alpha)
    leaves = subtree_leaves(nodes, cut)
    assert abs(sum(own[i] for i in leaves) - optimum) <= Fraction(1, 10**12)
    if margin is None or margin > Fraction(1, 10**12):
        assert leaves == subtree_leaves(nodes, oracle_cut)
    # the copy holds that subtree and nothing else: its leaves, as a binary
    # tree, and their class counts
    pruned = tree._collapse(nodes, cut)
    assert len(pruned) == 2 * len(leaves) - 1
    assert (sorted(pruned[i].class_counts.tolist()
                   for i in subtree_leaves(pruned, ()))
            == sorted(nodes[i].class_counts.tolist() for i in leaves))


@settings(max_examples=300, deadline=None)
@given(small_matrices(), st.data())
def test_early_leaf_prunes_as_full_growth_does(data, draw):
    # the final fit leaves unsearched every node whose cost R(t) is at most
    # alpha / 2; its tree must be full growth pruned at alpha, also when
    # alpha is R(t) or 2 R(t) of a grown node
    D, X, y = data
    assume(len(set(y)) >= 2)
    grown = grown_tree(D, y)
    n_total = int(grown[0].class_counts.sum())
    cost = st.sampled_from([int(nd.class_counts.sum()) / n_total
                            * nd.impurity for nd in grown])
    alpha = draw.draw(st.one_of(st.sampled_from(CCP_ALPHA_GRID),
                                st.floats(0.0, 0.5), cost,
                                cost.map(lambda r: 2 * r)))
    expected = DecisionTreeModel(
        tree._collapse(grown, tree._pruned(grown, alpha)), sorted(set(y)),
        max_depth=30, chosen_alpha=alpha).to_dict()
    for M in (D, X):
        assert train_dtree(M, y, ccp_alpha=alpha).to_dict() \
            == expected


def test_json_roundtrip():
    X, y = noisy_data(seed=13)
    model = train_dtree(X, y, cv_folds=3, seed=2)
    back = DecisionTreeModel.from_dict(json.loads(json.dumps(model.to_dict())))
    # a CV-selected tree reloads with the same settings it was trained with
    assert back.to_dict() == model.to_dict()
    assert ((back.max_depth, back.chosen_alpha)
            == (model.max_depth, model.chosen_alpha))
    assert back.cv_mean_f1 == model.cv_mean_f1
    assert set(back.cv_mean_f1) == set(CCP_ALPHA_GRID)
    Xq = np.random.default_rng(1).standard_normal((50, X.shape[1]))
    assert predict_dtree(back, Xq) == predict_dtree(model, Xq)
