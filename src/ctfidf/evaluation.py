"""Confusion-matrix metrics, k-fold utilities, and training-time capture."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    InvalidKError,
    LengthMismatchError,
    UnknownPositiveLabelError,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int
    positive_label: str

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
                "positiveLabel": self.positive_label}


@dataclass(frozen=True)
class MetricsFragment:
    precision: float
    recall: float
    f1: float
    balanced_accuracy: float

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1, "balancedAccuracy": self.balanced_accuracy}


def confusion(y_true: Sequence[str], y_pred: Sequence[str],
              positive_label: str) -> ConfusionMatrix:
    """Exact binary confusion counts against one positive class."""
    if len(y_true) != len(y_pred):
        raise LengthMismatchError(
            f"y_true has {len(y_true)} items, y_pred has {len(y_pred)}")
    seen = set(y_true) | set(y_pred)
    if positive_label not in seen:
        raise UnknownPositiveLabelError(
            f"{positive_label!r} not among labels {sorted(seen)}")
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == positive_label:
            if p == positive_label:
                tp += 1
            else:
                fn += 1
        else:
            if p == positive_label:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fp, fn, tn, positive_label)


def metrics(cm: ConfusionMatrix) -> MetricsFragment:
    """Precision, recall, F1, balanced accuracy, all zero-guarded."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    specificity = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp else 0.0
    return MetricsFragment(precision=precision, recall=recall, f1=f1,
                           balanced_accuracy=(recall + specificity) / 2)


def kfold_indices(n: int, k: int, seed: int,
                  stratify_labels: Sequence[str] | None = None
                  ) -> list[np.ndarray]:
    """Disjoint fold index arrays covering range(n), sizes within 1.

    Stratified folds keep each label's per-fold count within one of its
    exact share. Deterministic for a given seed.
    """
    if k < 2 or k > n:
        raise InvalidKError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if stratify_labels is None:
        perm = rng.permutation(n)
        base, extra = divmod(n, k)
        folds = []
        at = 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            folds.append(np.sort(perm[at:at + size]))
            at += size
        return folds

    if len(stratify_labels) != n:
        raise LengthMismatchError(
            f"{len(stratify_labels)} labels for n={n}")
    by_label: dict[str, list[int]] = {}
    for i, lab in enumerate(stratify_labels):
        by_label.setdefault(lab, []).append(i)
    thin = sorted(lab for lab, idx in by_label.items() if len(idx) < k)
    if thin:
        warnings.warn(
            f"label(s) {thin} have fewer than {k} records; "
            "some folds will miss them", stacklevel=2)
    assignments: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for lab in sorted(by_label):
        idx = by_label[lab]
        perm = rng.permutation(len(idx))
        base, extra = divmod(len(idx), k)
        at = 0
        for f in range(k):
            size = base + (1 if (f - offset) % k < extra else 0)
            assignments[f].extend(idx[j] for j in perm[at:at + size])
            at += size
        offset = (offset + extra) % k
    return [np.sort(np.asarray(a, dtype=np.int64)) for a in assignments]


def time_train(train_call: Callable[[], object]):
    """Run a training call under a monotonic clock.

    Returns (result, elapsed_ms). On failure the partial elapsed time is
    attached to the exception as ``elapsed_ms`` before re-raising.
    """
    t0 = time.perf_counter()
    try:
        result = train_call()
    except Exception as exc:
        exc.elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
        raise
    return result, int(round((time.perf_counter() - t0) * 1000))


@dataclass(frozen=True)
class EvalReport:
    """Full per-experiment result: metrics, timing, and provenance.

    ``extras`` carries run context (sizes, effective ranks, machine
    descriptor, timestamp); everything needed to reproduce the run is in
    ``config_snapshot`` plus the dataset fingerprint.
    """

    schema_version: int
    confusion_matrix: ConfusionMatrix
    metric: MetricsFragment
    train_time_ms: int
    reduce_time_ms: int | None
    config_snapshot: dict
    dataset_fingerprint: str
    extras: dict

    def to_dict(self) -> dict:
        d = {"schemaVersion": self.schema_version}
        d.update(self.metric.to_dict())
        d["confusion"] = self.confusion_matrix.to_dict()
        d["trainTimeMs"] = self.train_time_ms
        d["reduceTimeMs"] = self.reduce_time_ms
        d["datasetFingerprint"] = self.dataset_fingerprint
        d["config"] = self.config_snapshot
        d.update(self.extras)
        return d
