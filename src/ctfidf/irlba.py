"""Truncated SVD via augmented implicitly restarted Lanczos bidiagonalization.

Finds the k largest singular triplets of a large sparse (or dense) matrix
A without ever densifying it. One restart cycle runs Golub-Kahan-Lanczos
bidiagonalization out to ``work_size`` basis vectors with full
reorthogonalization, takes the SVD of the small projected matrix, and
checks Ritz residuals. If unconverged, the basis is collapsed onto the
leading Ritz vectors plus the residual direction (augmentation) and the
recurrence continues from there.

Implementation notes:

* Both bases are re-orthogonalized with classical Gram-Schmidt applied
  twice, which keeps orthonormality at machine precision for the basis
  sizes used here (a few hundred columns).
* The small matrix B stores the measured projection coefficients
  ``U^T A v`` rather than the textbook bidiagonal entries. In exact
  arithmetic these coincide (and after an augmented restart they produce
  the arrowhead column automatically), so no special-case bookkeeping is
  needed and the Ritz extraction stays consistent with what was actually
  computed.
* Residuals: by construction A v_i = s_i u_i exactly, and
  ``||A^T u_i - s_i v_i|| = beta * |last row of W|`` where B = W S Y^T,
  so convergence tests cost nothing beyond the small SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    BreakdownError,
    ConfigError,
    DimensionMismatchError,
    NoConvergenceError,
)

_BREAKDOWN_REL = 1e-12  # of the running norm estimate


@dataclass(frozen=True)
class IrlbaConfig:
    """Requested rank plus iteration controls.

    ``work_size`` is the Lanczos basis dimension per restart; None picks
    k + max(20, k // 2), clamped to min(m, n).
    """

    k: int
    work_size: int | None = None
    tol: float = 1e-5
    max_restarts: int = 100
    seed: int = 0

    def resolve_work(self, m: int, n: int) -> int:
        small = min(m, n)
        if not 1 <= self.k < small:
            raise ConfigError("k", f"need 1 <= k < min(m, n)={small}, got {self.k}")
        if self.tol <= 0:
            raise ConfigError("tol", f"must be positive, got {self.tol}")
        if self.work_size is None:
            work = min(self.k + max(20, self.k // 2), small)
        else:
            work = self.work_size
        if not self.k < work <= small:
            raise ConfigError(
                "work_size",
                f"need k < work_size <= min(m, n)={small}, got {work}")
        return work


@dataclass(frozen=True)
class SvdFactors:
    """Truncated factors A ~ U diag(s) V^T with convergence metadata."""

    U: np.ndarray | None  # m x k, orthonormal columns; None once loaded
    s: np.ndarray  # k, descending, nonnegative
    V: np.ndarray  # n x k, orthonormal columns
    k: int
    tol: float
    restarts: int
    seed: int


def spmv(A, x: np.ndarray) -> np.ndarray:
    """A @ x with an explicit dimension check."""
    x = np.asarray(x)
    if A.shape[1] != x.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {A.shape[0]}x{A.shape[1]}, vector has {x.shape[0]}")
    return np.asarray(A @ x).ravel()


def spmv_t(A, x: np.ndarray) -> np.ndarray:
    """A.T @ x with an explicit dimension check."""
    x = np.asarray(x)
    if A.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"matrix is {A.shape[0]}x{A.shape[1]}, vector has {x.shape[0]}")
    return np.asarray(A.T @ x).ravel()


def _cgs2(basis: np.ndarray, ncols: int, w: np.ndarray):
    """Classical Gram-Schmidt, applied twice, against basis[:, :ncols].

    Returns the orthogonalized vector and the measured coefficients.
    """
    if ncols == 0:
        return w, np.zeros(0)
    Q = basis[:, :ncols]
    c1 = Q.T @ w
    w = w - Q @ c1
    c2 = Q.T @ w
    w = w - Q @ c2
    return w, c1 + c2


def _fresh_direction(rng: np.random.Generator, basis: np.ndarray,
                     ncols: int, dim: int) -> np.ndarray | None:
    """Random unit vector orthogonal to basis[:, :ncols]; None if exhausted."""
    if ncols >= dim:
        return None
    for _ in range(3):
        cand = rng.standard_normal(dim)
        cand, _ = _cgs2(basis, ncols, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            return cand / nrm
    raise BreakdownError(
        "could not find a direction orthogonal to the current basis")


def _extend(A, U: np.ndarray, V: np.ndarray, B: np.ndarray,
            j_start: int, j_end: int, rng: np.random.Generator,
            anorm: float) -> tuple[float, float]:
    """Advance the bidiagonalization from j_start to j_end columns.

    On entry U[:, :j_start], V[:, :j_start + 1] and B[:j_start, :j_start]
    hold a valid partial factorization. Returns (beta, anorm) where beta
    couples the final right residual direction V[:, j_end].
    """
    m, n = A.shape
    beta = 0.0
    for j in range(j_start, j_end):
        w = spmv(A, V[:, j])
        w, c = _cgs2(U, j, w)
        alpha = float(np.linalg.norm(w))
        anorm = max(anorm, alpha)
        B[:j, j] = c
        if alpha > _BREAKDOWN_REL * anorm and alpha > 0.0:
            B[j, j] = alpha
            U[:, j] = w / alpha
        else:
            B[j, j] = 0.0
            U[:, j] = _fresh_direction(rng, U, j, m)

        r = spmv_t(A, U[:, j])
        r, _ = _cgs2(V, j + 1, r)
        beta = float(np.linalg.norm(r))
        anorm = max(anorm, beta)
        if beta > _BREAKDOWN_REL * anorm and beta > 0.0:
            V[:, j + 1] = r / beta
        else:
            beta = 0.0
            repl = _fresh_direction(rng, V, j + 1, n)
            V[:, j + 1] = 0.0 if repl is None else repl
    return beta, anorm


def irlba(A, cfg: IrlbaConfig) -> SvdFactors:
    """Compute the k largest singular triplets of A.

    Converged means every one of the k Ritz residuals is at most
    ``cfg.tol * s_1``. Raises :class:`NoConvergenceError` (with the
    best-effort factors in the payload) once ``max_restarts`` is spent.
    """
    m, n = A.shape
    k = cfg.k
    work = cfg.resolve_work(m, n)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    U = np.zeros((m, work), order="F")
    V = np.zeros((n, work + 1), order="F")
    B = np.zeros((work, work))
    v0 = rng.standard_normal(n)
    V[:, 0] = v0 / np.linalg.norm(v0)

    # keep a few extra Ritz triplets across restarts; helps when s_k is
    # nearly tied with s_{k+1}
    keep = min(k + 5, work - 1)
    j_start = 0
    anorm = 0.0
    restarts = 0

    while True:
        beta, anorm = _extend(A, U, V, B, j_start, work, rng, anorm)
        W, s, Yt = np.linalg.svd(B)
        anorm = max(anorm, float(s[0]))
        residuals = beta * np.abs(W[-1, :k])
        done = bool(np.all(residuals <= cfg.tol * s[0]))

        if done or restarts >= cfg.max_restarts:
            Uk = U @ W[:, :k]
            Vk = V[:, :work] @ Yt[:k, :].T
            factors = SvdFactors(U=Uk, s=s[:k].copy(), V=Vk, k=k,
                                 tol=cfg.tol, restarts=restarts, seed=cfg.seed)
            if done:
                return factors
            worst = float(residuals.max() / s[0]) if s[0] > 0 else 0.0
            raise NoConvergenceError(
                f"{k} singular triplets not converged after {restarts} "
                f"restarts (worst relative residual {worst:.3e})",
                restarts=restarts, worst_residual=worst, best=factors)

        U[:, :keep] = U @ W[:, :keep]
        new_V = V[:, :work] @ Yt[:keep, :].T
        V[:, keep] = V[:, work]  # residual direction joins the basis
        V[:, :keep] = new_V
        B[:, :] = 0.0
        B[:keep, :keep] = np.diag(s[:keep])
        j_start = keep
        restarts += 1


def project(X, factors: SvdFactors, scaled: bool = False) -> np.ndarray:
    """Fold document vectors into the latent space: X @ V.

    For the training matrix this equals U @ diag(s) up to the residual
    tolerance. With ``scaled=True`` columns are divided by the singular
    values (zero values give zero columns).
    """
    if X.shape[1] != factors.V.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {X.shape[1]} columns, factors expect "
            f"{factors.V.shape[0]}")
    Z = np.asarray(X @ factors.V)
    if scaled:
        inv = np.divide(1.0, factors.s, out=np.zeros_like(factors.s),
                        where=factors.s > 0)
        Z = Z * inv
    return Z


def save_factors(path: str, factors: SvdFactors) -> None:
    """Write s, V and the metadata to an .npz container (any filename is
    honored). U is left out: projecting new documents needs only V and s.
    """
    with open(path, "wb") as fh:
        np.savez(fh, s=factors.s, V=np.ascontiguousarray(factors.V),
                 k=factors.k, tol=factors.tol, restarts=factors.restarts,
                 seed=factors.seed)


def load_factors(path: str) -> SvdFactors:
    """Read factors written by :func:`save_factors`; their U is None."""
    with np.load(path, allow_pickle=False) as z:
        return SvdFactors(U=None, s=z["s"], V=z["V"], k=int(z["k"]),
                          tol=float(z["tol"]), restarts=int(z["restarts"]),
                          seed=int(z["seed"]))
