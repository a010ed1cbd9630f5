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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DimensionMismatchError,
    NoConvergenceError,
    SingleClassError,
)


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    C: float
    label_order: tuple[str, str]  # (negative, positive)
    objective_path: tuple[float, ...] = ()  # dual objective after each pass
    passes: int = 0
    pg_gap: float = 0.0  # projected-gradient spread of the last pass

    def to_dict(self) -> dict:
        return {"kind": "svm", "weights": self.weights.tolist(),
                "bias": self.bias, "C": self.C,
                "labelOrder": list(self.label_order),
                "passes": self.passes, "pgGap": self.pg_gap,
                "objectivePath": list(self.objective_path)}

    @classmethod
    def from_dict(cls, d: dict) -> "SvmModel":
        return cls(weights=np.asarray(d["weights"], dtype=np.float64),
                   bias=float(d["bias"]), C=float(d["C"]),
                   label_order=(d["labelOrder"][0], d["labelOrder"][1]),
                   objective_path=tuple(float(v) for v in
                                        d.get("objectivePath", ())),
                   passes=int(d.get("passes", 0)),
                   pg_gap=float(d.get("pgGap", 0.0)))


def train_svm(X, y: list[str], C: float = 1.0, tol: float = 1e-4,
              max_iter: int = 100_000, seed: int = 0) -> SvmModel:
    """Fit the two-class linear SVM; deterministic for a fixed seed.

    Raises :class:`NoConvergenceError` with the best-effort model in the
    payload if ``max_iter`` passes do not reach ``tol``.
    """
    labels = sorted(set(y))
    if len(labels) != 2:
        raise SingleClassError(f"need exactly 2 classes, got {labels}")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = X.shape[0]
    if n != len(y):
        raise DimensionMismatchError(
            f"X has {n} rows, y has {len(y)} labels")
    neg, pos = labels[0], labels[1]
    yv = np.asarray([1.0 if lab == pos else -1.0 for lab in y])

    sparse = sp.issparse(X)
    if sparse:
        Xc = X.tocsr()
        indptr, indices, data = Xc.indptr, Xc.indices, Xc.data
        sq = np.asarray(Xc.multiply(Xc).sum(axis=1)).ravel() + 1.0
        n_features = Xc.shape[1]
    else:
        Xd = np.ascontiguousarray(X, dtype=np.float64)
        sq = np.einsum("ij,ij->i", Xd, Xd) + 1.0
        n_features = Xd.shape[1]

    rng = np.random.Generator(np.random.PCG64(seed))
    alpha = np.zeros(n)
    w = np.zeros(n_features)
    b = 0.0
    objective_path: list[float] = []
    converged = False
    passes = 0

    for _ in range(max_iter):
        passes += 1
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
        objective_path.append(
            0.5 * (float(w @ w) + b * b) - float(alpha.sum()))
        if max_pg - min_pg < tol:
            converged = True
            break

    gap = float(max_pg - min_pg)
    model = SvmModel(weights=w, bias=b, C=C, label_order=(neg, pos),
                     objective_path=tuple(objective_path), passes=passes,
                     pg_gap=gap)
    if not converged:
        raise NoConvergenceError(
            f"dual coordinate descent did not reach tol={tol} within "
            f"{max_iter} passes", restarts=passes,
            worst_residual=gap, best=model)
    return model


def decision_scores(model: SvmModel, X) -> np.ndarray:
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
