import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctfidf import pipeline
from ctfidf.evaluation import (
    ConfusionMatrix,
    confusion,
    kfold_indices,
    metrics,
)
from ctfidf.exceptions import (
    InvalidKError,
    LengthMismatchError,
    UnknownPositiveLabelError,
)
from ctfidf.pipeline import config_from_dict, run_experiment
from ctfidf.svm import SvmModel


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
        folds = kfold_indices(["ham"] * 64 + ["spam"] * 36, 10, seed=0)
        assert [len(f) for f in folds] == [10] * 10

    def test_uneven_folds(self):
        folds = kfold_indices(["a"] * 7 + ["b"] * 3, 3, seed=0)
        assert sorted(len(f) for f in folds) == [3, 3, 4]

    def test_partition(self):
        folds = kfold_indices(["a", "b", "b"] * 19, 7, seed=3)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(57))

    def test_stratified_exact_ratio(self):
        labels = ["ham"] * 70 + ["spam"] * 30
        folds = kfold_indices(labels, 10, seed=1)
        for f in folds:
            got = [labels[i] for i in f]
            assert got.count("ham") == 7
            assert got.count("spam") == 3

    def test_stratified_within_one(self):
        labels = ["a"] * 53 + ["b"] * 17
        folds = kfold_indices(labels, 4, seed=2)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        for f in folds:
            got = [labels[i] for i in f]
            assert abs(got.count("a") - 53 / 4) < 1 + 1e-9
            assert abs(got.count("b") - 17 / 4) < 1 + 1e-9

    def test_determinism(self):
        labels = ["a"] * 30 + ["b"] * 20
        a = kfold_indices(labels, 5, seed=9)
        b = kfold_indices(labels, 5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            kfold_indices(["a", "b"] * 3, 1, seed=0)
        with pytest.raises(InvalidKError):
            kfold_indices(["a", "b"] * 3, 7, seed=0)

    def test_thin_label_warns(self):
        labels = ["a"] * 19 + ["b"]
        with pytest.warns(UserWarning, match="fewer than"):
            kfold_indices(labels, 4, seed=0)


class TestTimeTrain:
    def test_sleep_stub(self, base_config, monkeypatch):
        def slow_train(config, X, y):
            time.sleep(0.1)
            return SvmModel(np.zeros(X.shape[1]), 0.0, 1.0, ("ham", "spam"))

        monkeypatch.setattr(pipeline, "_train_model", slow_train)
        base_config["reduce"] = {"enabled": False}
        report = run_experiment(config_from_dict(base_config)).to_dict()
        assert 100 <= report["trainTimeMs"] <= 200
