"""Linear soft-margin SVM trained by dual coordinate descent.

Solves the L1-hinge problem min_w 1/2 ||w||^2 + C sum_i max(0, 1 - y_i
(w . x_i + b)) in its dual form, one coordinate (training example) at a
time in a seeded random order per pass. The bias is handled as an
implicit all-ones feature, i.e. it is regularized along with w; at
C values used for text classification the difference from an
unregularized bias is negligible.

The monitored objective is the dual 1/2 (||w||^2 + b^2) - sum(alpha),
which every coordinate step decreases or leaves unchanged. Convergence
follows the projected-gradient spread criterion: a pass whose projected
gradients span less than ``tol`` ends training.

Shrinking (Hsieh et al., ICML 2008, Algorithm 3; as in LIBLINEAR): a pass
visits only the active set, in a seeded random order. An example leaves
it when its alpha sits at a bound and its gradient points out of the box
by more than the previous pass's projected gradients reached: alpha = 0
with G above their maximum, or alpha = C with G below their minimum (a
maximum <= 0 or a minimum >= 0 counts as no threshold). Such an example
has projected gradient 0. When a pass over a shrunken set reaches
``tol``, every example becomes active again and training goes on, so it
stops only on a pass over all examples that reaches ``tol``.
``active_path`` records how many examples each pass visited, so its
length is the pass count ``passes``, and ``max_iter`` bounds it.

Sparse rows are visited on plain Python scalars: each row is a pair of
zero-copy ``memoryview`` slices of the CSR indices and data, ``w`` is a
list while training, and the dot product and the update are loops over
the stored entries. Term rows hold about a dozen stored values, and on
them the fixed cost of each numpy call (a gather, a dot product, a
scatter-add) outweighs the arithmetic: on a 15,607-row tfidf matrix with
12.5 stored values per row, training fell from about 1.5 s to about
1.0 s. The loop sums in stored order, so the weights can differ from a
numpy dot product's in the last bits. Dense rows stay on numpy, whose dot
product wins on 300-wide rows; calling BLAS directly through
``scipy.linalg`` would be faster still, but it loads scipy's second
OpenBLAS, about 8 MB of resident memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DimensionMismatchError,
    NoConvergenceError,
    SingleClassError,
    as_feature_matrix,
)


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    C: float
    label_order: tuple[str, str]  # (negative, positive)
    objective_path: tuple[float, ...] = ()  # dual objective after each pass
    active_path: tuple[int, ...] = ()  # examples each pass computed G for
    pg_gap: float = 0.0  # projected-gradient spread of the last pass

    @property
    def passes(self) -> int:
        return len(self.active_path)

    def to_dict(self) -> dict:
        return {"kind": "svm", "weights": self.weights.tolist(),
                "bias": self.bias, "C": self.C,
                "labelOrder": list(self.label_order),
                "passes": self.passes, "pgGap": self.pg_gap,
                "objectivePath": list(self.objective_path),
                "activePath": list(self.active_path)}

    @classmethod
    def from_dict(cls, d: dict) -> "SvmModel":
        return cls(weights=np.asarray(d["weights"], dtype=np.float64),
                   bias=float(d["bias"]), C=float(d["C"]),
                   label_order=(d["labelOrder"][0], d["labelOrder"][1]),
                   objective_path=tuple(float(v) for v in
                                        d.get("objectivePath", ())),
                   active_path=tuple(int(v) for v in d.get("activePath", ())),
                   pg_gap=float(d.get("pgGap", 0.0)))


def train_svm(X, y: list[str], C: float = 1.0, tol: float = 1e-4,
              max_iter: int = 100_000, seed: int = 0) -> SvmModel:
    """Fit the two-class linear SVM; deterministic for a fixed seed.

    X passes through :func:`~ctfidf.exceptions.as_feature_matrix`, so
    sparse rows are read from canonical float64 CSR. Raises
    :class:`NoConvergenceError` if ``max_iter`` passes end before a pass
    over all examples reaches ``tol``; its ``best`` holds the best-effort
    model, whose ``passes`` and ``pg_gap`` say how far it got.
    """
    labels = sorted(set(y))
    if len(labels) != 2:
        raise SingleClassError(f"need exactly 2 classes, got {labels}")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    X = as_feature_matrix(X)
    n = X.shape[0]
    if n != len(y):
        raise DimensionMismatchError(
            f"X has {n} rows, y has {len(y)} labels")
    neg, pos = labels[0], labels[1]
    # plain lists and one prebuilt row view each: cheaper per visit than
    # indexing numpy arrays in the loop
    yv = [1.0 if lab == pos else -1.0 for lab in y]

    sparse = sp.issparse(X)
    if sparse:
        bounds = X.indptr.tolist()
        cols_all, vals_all = memoryview(X.indices), memoryview(X.data)
        rows = [(cols_all[lo:hi], vals_all[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]
        sq = np.asarray(X.multiply(X).sum(axis=1)).ravel() + 1.0
        w = [0.0] * X.shape[1]
    else:
        X = np.ascontiguousarray(X)
        rows = list(X)
        sq = np.einsum("ij,ij->i", X, X) + 1.0
        w = np.zeros(X.shape[1])
    sq = sq.tolist()

    rng = np.random.Generator(np.random.PCG64(seed))
    alpha = [0.0] * n
    b = 0.0
    objective_path: list[float] = []
    active_path: list[int] = []
    active = range(n)
    # shrinking thresholds, from the previous pass's projected gradients
    upper, lower = math.inf, -math.inf
    converged = False

    for _ in range(max_iter):
        active_path.append(len(active))
        max_pg = -math.inf
        min_pg = math.inf
        kept: list[int] = []
        for i in rng.permutation(active).tolist():
            yi = yv[i]
            if sparse:
                cols, vals = rows[i]
                f = 0.0
                for c, v in zip(cols, vals):
                    f += w[c] * v
                f += b
            else:
                xi = rows[i]
                f = float(xi @ w) + b
            G = yi * f - 1.0
            a = alpha[i]
            if a <= 0.0:
                if G > upper:
                    continue
                pg = min(G, 0.0)
            elif a >= C:
                if G < lower:
                    continue
                pg = max(G, 0.0)
            else:
                pg = G
            kept.append(i)
            max_pg = max(max_pg, pg)
            min_pg = min(min_pg, pg)
            if pg != 0.0:
                new = min(max(a - G / sq[i], 0.0), C)
                d = new - a
                if d != 0.0:
                    alpha[i] = new
                    step = d * yi
                    if sparse:
                        for c, v in zip(cols, vals):
                            w[c] += step * v
                    else:
                        w += step * xi
                    b += step
        wv = np.asarray(w, dtype=np.float64)
        objective_path.append(
            0.5 * (float(wv @ wv) + b * b) - float(np.sum(alpha)))
        # a shrunk example has projected gradient 0, so a pass that shrinks
        # every example it visits has spread 0
        gap = max_pg - min_pg if kept else 0.0
        if gap < tol:
            if len(kept) == n:
                converged = True
                break
            # re-check every example before stopping
            active, upper, lower = range(n), math.inf, -math.inf
        else:
            active = kept
            upper = max_pg if max_pg > 0.0 else math.inf
            lower = min_pg if min_pg < 0.0 else -math.inf

    model = SvmModel(weights=wv, bias=b, C=C, label_order=(neg, pos),
                     objective_path=tuple(objective_path),
                     active_path=tuple(active_path), pg_gap=gap)
    if not converged:
        raise NoConvergenceError(
            f"dual coordinate descent did not reach tol={tol} within "
            f"{max_iter} passes", best=model)
    return model


def decision_scores(model: SvmModel, X) -> np.ndarray:
    """w . x + b for every row; a NaN or infinite value raises, since its
    score would be NaN and the row would silently go negative."""
    X = as_feature_matrix(X)
    if X.shape[1] != model.weights.shape[0]:
        raise DimensionMismatchError(
            f"X has {X.shape[1]} columns, model has "
            f"{model.weights.shape[0]} weights")
    return np.asarray(X @ model.weights).ravel() + model.bias


def predict_svm(model: SvmModel, X) -> list[str]:
    """Signed decision labels; a score of exactly zero goes positive."""
    scores = decision_scores(model, X)
    neg, pos = model.label_order
    return [pos if s >= 0.0 else neg for s in scores]
