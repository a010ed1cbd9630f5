import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctfidf.evaluation import (
    ConfusionMatrix,
    confusion,
    kfold_indices,
    metrics,
    time_train,
)
from ctfidf.exceptions import (
    InvalidKError,
    LengthMismatchError,
    UnknownPositiveLabelError,
)


class TestConfusion:
    def test_perfect_prediction(self):
        cm = confusion(["s", "h", "s"], ["s", "h", "s"], "s")
        assert (cm.fp, cm.fn) == (0, 0)
        assert (cm.tp, cm.tn) == (2, 1)

    def test_all_inverted(self):
        cm = confusion(["s", "h"], ["h", "s"], "s")
        assert (cm.tp, cm.tn) == (0, 0)
        assert (cm.fp, cm.fn) == (1, 1)

    def test_hand_count(self):
        cm = confusion(list("sshh"), list("shhh"), "s")
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 0, 2)

    def test_total_is_sample_count(self):
        cm = confusion(list("sshh"), list("shhh"), "s")
        assert cm.total == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion(["a"], ["a", "b"], "a")

    def test_unknown_positive(self):
        with pytest.raises(UnknownPositiveLabelError):
            confusion(["a", "b"], ["a", "b"], "zzz")

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.sampled_from(["s", "h"]),
                              st.sampled_from(["s", "h"])), min_size=1))
    def test_label_swap_symmetry(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        if "s" not in set(y_true) | set(y_pred):
            y_true[0] = "s"
        if "h" not in set(y_true) | set(y_pred):
            y_true[0] = "h"
        a = confusion(y_true, y_pred, "s")
        b = confusion(y_true, y_pred, "h")
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tn, b.fn, b.fp, b.tp)
        ma, mb = metrics(a), metrics(b)
        assert ma.balanced_accuracy == pytest.approx(mb.balanced_accuracy,
                                                     abs=1e-12)


class TestMetrics:
    def test_direct_arithmetic(self):
        m = metrics(ConfusionMatrix(tp=90, fp=10, fn=10, tn=890, positive_label="s"))
        assert m.precision == pytest.approx(0.9)
        assert m.recall == pytest.approx(0.9)
        assert m.f1 == pytest.approx(0.9)
        assert m.balanced_accuracy == pytest.approx((0.9 + 890 / 900) / 2)
        assert m.balanced_accuracy == pytest.approx(0.944444, abs=1e-6)

    def test_degenerate_guards(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=5, positive_label="s"))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_table_consistency_example(self):
        """precision 0.9783, recall 0.9965 must give F1 0.9873."""
        p, r = 0.9783, 0.9965
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.9873, abs=1e-4)

    def test_f1_between_min_and_max(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, fp, fn, tn = rng.integers(1, 50, 4)
            m = metrics(ConfusionMatrix(int(tp), int(fp), int(fn), int(tn), "s"))
            if m.precision > 0 and m.recall > 0:
                assert min(m.precision, m.recall) <= m.f1
                assert m.f1 <= max(m.precision, m.recall)


class TestKfold:
    def test_even_folds(self):
        folds = kfold_indices(100, 10, seed=0)
        assert [len(f) for f in folds] == [10] * 10

    def test_uneven_folds(self):
        folds = kfold_indices(10, 3, seed=0)
        assert sorted(len(f) for f in folds) == [3, 3, 4]

    def test_partition(self):
        folds = kfold_indices(57, 7, seed=3)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(57))

    def test_stratified_exact_ratio(self):
        labels = ["ham"] * 70 + ["spam"] * 30
        folds = kfold_indices(100, 10, seed=1, stratify_labels=labels)
        for f in folds:
            got = [labels[i] for i in f]
            assert got.count("ham") == 7
            assert got.count("spam") == 3

    def test_stratified_within_one(self):
        labels = ["a"] * 53 + ["b"] * 17
        folds = kfold_indices(70, 4, seed=2, stratify_labels=labels)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for f in folds:
            got = [labels[i] for i in f]
            assert abs(got.count("a") - 53 / 4) < 1 + 1e-9
            assert abs(got.count("b") - 17 / 4) < 1 + 1e-9

    def test_determinism(self):
        labels = ["a"] * 30 + ["b"] * 20
        a = kfold_indices(50, 5, seed=9, stratify_labels=labels)
        b = kfold_indices(50, 5, seed=9, stratify_labels=labels)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            kfold_indices(5, 1, seed=0)
        with pytest.raises(InvalidKError):
            kfold_indices(5, 6, seed=0)

    def test_thin_label_warns(self):
        labels = ["a"] * 19 + ["b"]
        with pytest.warns(UserWarning, match="fewer than"):
            kfold_indices(20, 4, seed=0, stratify_labels=labels)


class TestTimeTrain:
    def test_noop_bound(self):
        _, ms = time_train(lambda: None)
        assert 0 <= ms < 50

    def test_sleep_stub(self):
        _, ms = time_train(lambda: time.sleep(0.1))
        assert 100 <= ms <= 200

    def test_error_carries_partial_timing(self):
        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError) as err:
            time_train(boom)
        assert hasattr(err.value, "elapsed_ms")
