"""Truncated SVD demo: restarted Lanczos bidiagonalization vs dense SVD.

Computes the 25 largest singular triplets of a sparse 2000 x 1500 matrix
without forming it densely, then cross-checks values, orthonormality, and
residuals against numpy's dense SVD.
"""

import time

import numpy as np
import scipy.sparse as sp

from ctfidf.irlba import irlba, project

m, n, k = 2000, 1500, 25
A = sp.random(m, n, density=0.01,
              random_state=np.random.RandomState(7), format="csr")
A.data += 0.2
print(f"sparse {m} x {n}, nnz = {A.nnz} "
      f"({100 * A.nnz / (m * n):.1f}% dense), k = {k}\n")

t0 = time.perf_counter()
factors = irlba(A, k, tol=1e-8, seed=0)
t_lanczos = time.perf_counter() - t0
print(f"restarted Lanczos: {t_lanczos:.2f}s, {factors.restarts} restart(s)")

t0 = time.perf_counter()
dense_s = np.linalg.svd(A.toarray(), compute_uv=False)[:k]
t_dense = time.perf_counter() - t0
print(f"dense SVD oracle:  {t_dense:.2f}s\n")

rel = np.abs(factors.s - dense_s) / dense_s
orth_u = np.abs(factors.U.T @ factors.U - np.eye(k)).max()
orth_v = np.abs(factors.V.T @ factors.V - np.eye(k)).max()
res = np.linalg.norm(A.T @ factors.U - factors.V * factors.s, axis=0).max()

print(f"top 5 singular values: {factors.s[:5].round(4)}")
print(f"max relative value error vs oracle: {rel.max():.2e}")
print(f"orthonormality defect: U {orth_u:.2e}, V {orth_v:.2e}")
print(f"worst residual / s1: {res / factors.s[0]:.2e}")

Z = project(A, factors)
print(f"\nfold-in check: ||A V - U diag(s)||_max = "
      f"{np.abs(Z - factors.U * factors.s).max():.2e}")
print(f"document vectors now live in {k} dimensions instead of {n}.")
