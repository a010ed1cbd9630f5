"""Truncated SVD via augmented implicitly restarted Lanczos bidiagonalization.

Finds the k largest singular triplets of a large sparse (or dense) matrix
A without ever densifying it. One restart cycle runs Golub-Kahan-Lanczos
bidiagonalization out to k + max(20, k // 2) basis vectors, at most
min(m, n), takes the SVD of the small projected matrix, and checks Ritz
residuals. If unconverged, the basis is collapsed onto the leading Ritz
vectors plus the residual direction (augmentation) and the recurrence
continues from there.

Implementation notes:

* Reorthogonalization is one-sided (Simon & Zha 2000; Baglama & Reichel
  2005). Only the right basis V is orthogonalized against all its
  columns; while V stays orthonormal, the recurrence keeps the left basis
  U orthonormal to about the same precision, so each new u is
  orthogonalized only against its predecessor. The exception is the
  first column after a restart, which couples to every kept Ritz vector
  (the arrowhead column) and is orthogonalized against all of them.
* Each V step is the textbook Lanczos step: in exact arithmetic
  A^T u_j = alpha_j v_j + beta_j v_{j+1}, so the known term alpha_j v_j is
  subtracted first and Gram-Schmidt only cleans the remainder. Every
  orthogonalization is one classical Gram-Schmidt pass, with a second
  pass only when the first keeps less than 1/sqrt(2) of the vector's norm
  (Daniel, Gragg, Kaufman & Stewart 1976). One pass leaves rounding of
  about eps * ||w_in|| along the basis, which is small against a result
  that kept most of that norm; without the local term first, the raw
  A^T u_j would lose most of its norm to alpha_j v_j and always need two.
* Orientation: full reorthogonalization costs time in proportion to the
  length of the vectors it runs on, and text matrices are often wide. A
  matrix with fewer rows than columns is therefore run transposed, so
  that the fully reorthogonalized basis is always the shorter one, and U
  and V are swapped back in the result.
* Cancellation guard: when A v_j lies almost wholly in the span of the
  earlier u's (rank-deficient or nearly so input), the local step
  subtracts nearly equal vectors, and the rounding error it leaves is no
  longer small against what remains. The components along older u's then
  grow unchecked and U loses orthonormality. So a local step that leaves
  less than ``_LOCAL_KEEP`` of the norm of A v_j is redone against the
  whole of U. So is one whose alpha_j is below ``_LOCAL_FLOOR`` of the
  norm estimate: u_j = w / alpha_j then carries rounding of about
  eps * anorm / alpha_j, which on a graded spectrum reaching down to
  1e-10 * s_1 broke U while every Ritz residual still passed.
* The small matrix B stores the measured projection coefficients
  ``U^T A v`` rather than the textbook bidiagonal entries. In exact
  arithmetic these coincide (and after an augmented restart they produce
  the arrowhead column automatically), so no special-case bookkeeping is
  needed and the Ritz extraction stays consistent with what was actually
  computed. Columns orthogonalized only locally hold exact zeros above
  the superdiagonal.
* Residuals: by construction A v_i = s_i u_i exactly, and
  ``||A^T u_i - s_i v_i|| = beta * |last row of W|`` where B = W S Y^T,
  so convergence tests cost nothing beyond the small SVD.
* A restart rotates the bases in place, ``_ROTATE_ROWS`` rows at a time:
  row i of U W depends only on row i of U, so a block's product can
  overwrite that block, and the only extra memory is one block's product.
  A whole product U W would be a second basis-sized array (15 MB at the
  paper's k = 300). The returned factors are formed the same way: each
  basis is rotated in place onto its first k columns and then shrunk to
  them, which hands its memory back without a copy, so no moment holds a
  basis beside a product of it. Each factor is then made C-contiguous, one
  at a time, from k columns only.
* Signs: a singular pair (u, v) is only defined up to (-u, -v), and the
  sign the small SVD picks rests on arrowhead entries near zero, so a
  last-bit change anywhere in the fit, or another start vector, can flip
  it. Each returned column of V is therefore turned so that its
  largest-magnitude entry is positive, and U's column with it. Entries
  within ``_SIGN_TIE`` (relative) of the largest count as tied, and the
  lowest index among them decides, so that rounding cannot choose
  between near-equal entries. Negation is exact, so the residuals and
  the projected features' inner products do not change.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np
import numpy.lib.format as npy_format
from numpy.lib.npyio import NpzFile
import scipy.sparse as sp

from .exceptions import (
    BreakdownError,
    ConfigError,
    DimensionMismatchError,
    NoConvergenceError,
    as_feature_matrix,
)

_BREAKDOWN_REL = 1e-12  # of the running norm estimate
# share of ||A v_j|| a local orthogonalization step must leave, or the
# step is redone against all of U (see the module notes)
_LOCAL_KEEP = 0.5
# alpha_j below this share of the norm estimate also redoes the local step:
# its rounding, about eps * anorm / alpha_j relative to u_j, is then too
# large for the recurrence to keep U orthonormal (see the module notes)
_LOCAL_FLOOR = 1e-6
# share of its norm a Gram-Schmidt pass must keep, or a second pass runs
_DGKS_KEEP = 1.0 / np.sqrt(2.0)
# rows of a basis one step of a restart's in-place rotation covers
_ROTATE_ROWS = 512
# rows of a factor one write of save_factors covers
_SAVE_ROWS = 512
# entries of a column of V this close (relative) to its largest magnitude
# tie for deciding the column's sign (see the module notes)
_SIGN_TIE = 1e-8


@dataclass(frozen=True)
class SvdFactors:
    """Truncated factors A ~ U diag(s) V^T with convergence metadata.

    ``U`` is None in factors read by :func:`load_factors` and in the
    ``Classifier`` that ``run_experiment`` builds: projecting documents
    needs only ``V``, so U is neither saved nor kept.
    """

    U: np.ndarray | None  # m x k, orthonormal columns, or None (see above)
    s: np.ndarray  # k, descending, nonnegative
    V: np.ndarray  # n x k, orthonormal columns
    restarts: int
    residual: float  # worst Ritz residual at return, relative to s_1


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


class _WithTranspose:
    """A matrix with its transpose built once per fit, for ``spmv`` and
    ``spmv_t``, which read only ``shape``, ``@`` and ``T``. A sparse
    matrix's own ``.T`` builds a new object on every call; either way the
    transpose is a view of the matrix's arrays, not a copy."""

    def __init__(self, A):
        self.A, self.T, self.shape = A, A.T, A.shape

    def __matmul__(self, x: np.ndarray):
        return self.A @ x


def _orthogonalize(Q: np.ndarray, w: np.ndarray):
    """Classical Gram-Schmidt against the columns of Q, twice only if needed.

    One pass, then the Daniel-Gragg-Kaufman-Stewart (1976) test: if the
    pass kept less than ``_DGKS_KEEP`` of the norm of w, the rounding left
    along Q is no longer small against what remains, so a second pass
    takes it out. Returns the orthogonalized vector and the summed measured
    coefficients (w_in = Q c + w_out).
    """
    norm_in = np.linalg.norm(w)
    c = Q.T @ w
    w = w - Q @ c
    if np.linalg.norm(w) < _DGKS_KEEP * norm_in:
        c2 = Q.T @ w
        w = w - Q @ c2
        c = c + c2
    return w, c


def _rotate(Q: np.ndarray, R: np.ndarray) -> None:
    """Q[:, :c] = Q[:, :r] @ R in place, for R of shape (r, c),
    ``_ROTATE_ROWS`` rows at a time."""
    r, c = R.shape
    for lo in range(0, Q.shape[0], _ROTATE_ROWS):
        rows = slice(lo, lo + _ROTATE_ROWS)
        Q[rows, :c] = Q[rows, :r] @ R


def _fix_signs(U: np.ndarray, V: np.ndarray) -> None:
    """Negate, in place, each column pair of U and V where V's decisive
    entry is negative: the lowest-index entry within ``_SIGN_TIE`` of the
    column's largest magnitude. One column at a time, so no temporary is
    as large as V."""
    for j in range(V.shape[1]):
        size = np.abs(V[:, j])
        i = int(np.argmax(size >= (1.0 - _SIGN_TIE) * size.max()))
        if V[i, j] < 0.0:
            V[:, j] *= -1.0
            U[:, j] *= -1.0


def _fresh_direction(rng: np.random.Generator, basis: np.ndarray,
                     ncols: int, dim: int) -> np.ndarray | None:
    """Random unit vector orthogonal to basis[:, :ncols]; None if exhausted."""
    if ncols >= dim:
        return None
    for _ in range(3):
        cand = rng.standard_normal(dim)
        cand, _ = _orthogonalize(basis[:, :ncols], cand)
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
    hold a valid partial factorization, and B[:, j_start:] is zero.
    Returns (beta, anorm) where beta couples the final right residual
    direction V[:, j_end].
    """
    m, n = A.shape
    beta = 0.0
    for j in range(j_start, j_end):
        Av = spmv(A, V[:, j])
        # the first column of a cycle couples to every column before it
        lo = 0 if j == j_start else j - 1
        w, c = _orthogonalize(U[:, lo:j], Av)
        alpha = float(np.linalg.norm(w))
        if lo > 0 and (alpha < _LOCAL_KEEP * float(np.linalg.norm(Av))
                       or alpha < _LOCAL_FLOOR * anorm):
            lo = 0
            w, c = _orthogonalize(U[:, :j], Av)
            alpha = float(np.linalg.norm(w))
        anorm = max(anorm, alpha)
        B[lo:j, j] = c
        if alpha > _BREAKDOWN_REL * anorm and alpha > 0.0:
            B[j, j] = alpha
            U[:, j] = w / alpha
        else:
            B[j, j] = 0.0
            U[:, j] = _fresh_direction(rng, U, j, m)

        # A^T u_j = alpha_j v_j + beta_j v_{j+1}: take the known term out
        # first, so Gram-Schmidt sees only the small remainder
        r = spmv_t(A, U[:, j])
        r -= B[j, j] * V[:, j]
        r, _ = _orthogonalize(V[:, :j + 1], r)
        beta = float(np.linalg.norm(r))
        anorm = max(anorm, beta)
        if beta > _BREAKDOWN_REL * anorm and beta > 0.0:
            V[:, j + 1] = r / beta
        else:
            beta = 0.0
            repl = _fresh_direction(rng, V, j + 1, n)
            V[:, j + 1] = 0.0 if repl is None else repl
    return beta, anorm


def irlba(A, k: int, *, tol: float = 1e-5, seed: int = 0,
          max_restarts: int = 100) -> SvdFactors:
    """Compute the k largest singular triplets of A.

    Converged means every one of the k Ritz residuals is at most
    ``tol * s_1``. Raises :class:`NoConvergenceError` once
    ``max_restarts`` is spent; its ``best`` holds the best-effort factors,
    whose ``restarts`` and ``residual`` say how far they got.
    A k outside [1, min(m, n)) or a tol that is not positive raises
    :class:`ConfigError` naming ``k`` or ``tol``. ``seed`` draws the start
    vector.
    """
    A = as_feature_matrix(A)
    m, n = A.shape
    small = min(m, n)
    if not 1 <= k < small:
        raise ConfigError("k", f"need 1 <= k < min(m, n)={small}, got {k}")
    if tol <= 0:
        raise ConfigError("tol", f"must be positive, got {tol}")
    work = min(k + max(20, k // 2), small)  # Lanczos basis size per restart
    # V, the fully reorthogonalized basis, must be the shorter one
    wide = m < n
    if wide:
        A = A.T.tocsr() if sp.issparse(A) else A.T
        m, n = n, m
    A = _WithTranspose(A)
    rng = np.random.Generator(np.random.PCG64(seed))

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
        done = bool(np.all(residuals <= tol * s[0]))

        if done or restarts >= max_restarts:
            worst = float(residuals.max() / s[0]) if s[0] > 0 else 0.0
            # each factor takes its basis's place (see the module notes):
            # shrinking a column-major basis keeps its first k columns, and
            # no view of a basis outlives irlba, so resizing is safe
            _rotate(V, Yt[:k, :].T)
            _rotate(U, W[:, :k])
            del B, W, Yt
            V.resize((n, k), refcheck=False)
            U.resize((m, k), refcheck=False)
            if wide:
                U, V = V, U
            _fix_signs(U, V)
            # C order, which X @ V and save_factors read without a copy
            U = np.ascontiguousarray(U)
            V = np.ascontiguousarray(V)
            factors = SvdFactors(U=U, s=s[:k].copy(), V=V,
                                 restarts=restarts, residual=worst)
            if done:
                return factors
            raise NoConvergenceError(
                f"{k} singular triplets not converged after {restarts} "
                f"restarts (worst relative residual {worst:.3e})",
                best=factors)

        _rotate(U, W[:, :keep])
        _rotate(V, Yt[:keep, :].T)
        V[:, keep] = V[:, work]  # residual direction joins the basis
        B[:, :] = 0.0
        B[:keep, :keep] = np.diag(s[:keep])
        j_start = keep
        restarts += 1


def project(X, factors: SvdFactors) -> np.ndarray:
    """Fold document vectors into the latent space: X @ V.

    For the training matrix this equals U @ diag(s) up to the residual
    tolerance.
    """
    X = as_feature_matrix(X)
    if X.shape[1] != factors.V.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {X.shape[1]} columns, factors expect "
            f"{factors.V.shape[0]}")
    return np.asarray(X @ factors.V)


def save_factors(path: str, factors: SvdFactors) -> None:
    """Write s, V, the restart count and the residual to an .npz container
    (any filename is honored). U is left out: projecting new documents
    needs only V. The rank, tolerance and seed are in ``report.json``.

    The bytes are those of ``np.savez`` with V in C order, but each member
    is written ``_SAVE_ROWS`` rows at a time, so saving holds no copy of V.
    """
    members = {"s": factors.s, "V": factors.V,
               "restarts": factors.restarts, "residual": factors.residual}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in members.items():
            value = np.asarray(value)
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                npy_format.write_array_header_1_0(fh, {
                    "descr": npy_format.dtype_to_descr(value.dtype),
                    "fortran_order": False, "shape": value.shape})
                rows = np.atleast_1d(value)
                for lo in range(0, len(rows), _SAVE_ROWS):
                    fh.write(np.ascontiguousarray(
                        rows[lo:lo + _SAVE_ROWS]).data)


def load_factors(path: str) -> SvdFactors:
    """Read factors written by :func:`save_factors`; their U is None. A
    file cut short or not such an archive raises ``zipfile.BadZipFile``
    (``np.load`` would go on to read it as a pickle)."""
    with NpzFile(path) as z:
        return SvdFactors(U=None, s=z["s"], V=z["V"],
                          restarts=int(z["restarts"]),
                          residual=float(z["residual"]))
