import numpy as np
import pytest
import scipy.sparse as sp

from ctfidf.exceptions import (
    ConfigError,
    DimensionMismatchError,
    NoConvergenceError,
)
from ctfidf.irlba import (
    IrlbaConfig,
    irlba,
    load_factors,
    project,
    save_factors,
    spmv,
    spmv_t,
)


def random_sparse(m, n, density, seed):
    A = sp.random(m, n, density=density,
                  random_state=np.random.RandomState(seed), format="csr")
    A.data += 0.1  # keep entries away from zero
    return A


def check_factors(A, f, tol):
    k = f.k
    assert np.all(np.diff(f.s) <= 0)
    assert np.all(f.s >= 0)
    assert np.abs(f.U.T @ f.U - np.eye(k)).max() <= 1e-8
    assert np.abs(f.V.T @ f.V - np.eye(k)).max() <= 1e-8
    r1 = np.linalg.norm(A @ f.V - f.U * f.s, axis=0).max()
    r2 = np.linalg.norm(A.T @ f.U - f.V * f.s, axis=0).max()
    assert max(r1, r2) <= tol * f.s[0] + 1e-12


class TestSpmv:
    def test_identity(self):
        A = sp.identity(3, format="csr")
        x = np.array([1.0, 2.0, 3.0])
        assert spmv(A, x).tolist() == [1.0, 2.0, 3.0]
        assert spmv_t(A, x).tolist() == [1.0, 2.0, 3.0]

    def test_zero_matrix(self):
        A = sp.csr_matrix((4, 5))
        assert (spmv(A, np.ones(5)) == 0).all()
        assert (spmv_t(A, np.ones(4)) == 0).all()

    def test_against_dense_oracle(self):
        A = random_sparse(20, 15, 0.3, seed=1)
        D = A.toarray()
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(15)
            y = rng.standard_normal(20)
            assert np.abs(spmv(A, x) - D @ x).max() <= 1e-12
            assert np.abs(spmv_t(A, y) - D.T @ y).max() <= 1e-12

    def test_dimension_mismatch(self):
        A = sp.csr_matrix((4, 5))
        with pytest.raises(DimensionMismatchError):
            spmv(A, np.ones(4))
        with pytest.raises(DimensionMismatchError):
            spmv_t(A, np.ones(5))


class TestIrlba:
    def test_identity_all_ones(self):
        A = sp.identity(5, format="csr")
        f = irlba(A, IrlbaConfig(k=2, work_size=5, tol=1e-10, seed=3))
        assert np.abs(f.s - 1.0).max() <= 1e-10
        check_factors(A, f, 1e-10)

    def test_known_diagonal_spectrum(self):
        A = sp.csr_matrix(np.diag([3.0, 2.0, 1.0]))
        f = irlba(A, IrlbaConfig(k=2, work_size=3, tol=1e-10, seed=0))
        assert np.abs(f.s - [3.0, 2.0]).max() <= 1e-9
        check_factors(A, f, 1e-10)

    def test_random_sparse_vs_dense_oracle(self):
        A = random_sparse(200, 150, 0.02, seed=11)
        f = irlba(A, IrlbaConfig(k=10, tol=1e-8, seed=1))
        dense = np.linalg.svd(A.toarray(), compute_uv=False)[:10]
        rel = np.abs(f.s - dense) / dense
        assert rel.max() <= 1e-6
        check_factors(A, f, 1e-8)

    def test_wide_matrix(self):
        A = random_sparse(60, 180, 0.05, seed=12)
        f = irlba(A, IrlbaConfig(k=7, tol=1e-8, seed=2))
        dense = np.linalg.svd(A.toarray(), compute_uv=False)[:7]
        assert (np.abs(f.s - dense) / dense).max() <= 1e-6
        check_factors(A, f, 1e-8)

    def test_determinism(self):
        A = random_sparse(80, 50, 0.1, seed=13)
        cfg = IrlbaConfig(k=5, tol=1e-8, seed=21)
        f1 = irlba(A, cfg)
        f2 = irlba(A, cfg)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.V, f2.V)
        assert f1.restarts == f2.restarts

    def test_scale_equivariance(self):
        A = random_sparse(50, 40, 0.15, seed=14)
        cfg = IrlbaConfig(k=4, tol=1e-9, seed=5)
        f1 = irlba(A, cfg)
        f2 = irlba(A * 2.0, cfg)
        assert np.allclose(f2.s, 2.0 * f1.s, rtol=1e-10)
        assert np.allclose(np.abs(f2.V.T @ f1.V), np.eye(4), atol=1e-6)

    def test_rank_deficient_matrix(self):
        # rank 3 matrix, ask for k=5: trailing values are ~0
        rng = np.random.default_rng(15)
        L = rng.standard_normal((40, 3))
        R = rng.standard_normal((3, 30))
        A = sp.csr_matrix(L @ R)
        f = irlba(A, IrlbaConfig(k=5, tol=1e-8, seed=6))
        dense = np.linalg.svd(A.toarray(), compute_uv=False)[:5]
        assert np.abs(f.s[:3] - dense[:3]).max() <= 1e-6 * dense[0]
        assert f.s[3] <= 1e-8 * dense[0]
        assert np.abs(f.U.T @ f.U - np.eye(5)).max() <= 1e-8

    def test_zero_matrix(self):
        A = sp.csr_matrix((20, 15))
        f = irlba(A, IrlbaConfig(k=3, tol=1e-8, seed=7))
        assert (f.s == 0).all()
        assert np.abs(f.U.T @ f.U - np.eye(3)).max() <= 1e-8
        assert np.abs(f.V.T @ f.V - np.eye(3)).max() <= 1e-8

    def test_no_convergence_payload(self):
        A = random_sparse(100, 90, 0.05, seed=16)
        with pytest.raises(NoConvergenceError) as err:
            irlba(A, IrlbaConfig(k=10, work_size=12, tol=1e-14,
                                 max_restarts=0, seed=8))
        assert err.value.best is not None
        assert err.value.best.s.shape == (10,)
        assert err.value.worst_residual > 0

    def test_config_validation(self):
        A = random_sparse(30, 20, 0.2, seed=17)
        with pytest.raises(ConfigError):
            irlba(A, IrlbaConfig(k=0))
        with pytest.raises(ConfigError):
            irlba(A, IrlbaConfig(k=20))
        with pytest.raises(ConfigError):
            irlba(A, IrlbaConfig(k=5, work_size=4))
        with pytest.raises(ConfigError):
            irlba(A, IrlbaConfig(k=5, work_size=25))
        with pytest.raises(ConfigError):
            irlba(A, IrlbaConfig(k=5, tol=-1.0))


class TestProject:
    def test_training_projection_equals_us(self):
        A = random_sparse(60, 45, 0.1, seed=18)
        f = irlba(A, IrlbaConfig(k=6, tol=1e-9, seed=9))
        Z = project(A, f)
        assert np.abs(Z - f.U * f.s).max() <= 1e-9 * f.s[0]

    def test_zero_row_projects_to_zero(self):
        A = random_sparse(10, 8, 0.4, seed=19).tolil()
        A[3, :] = 0
        A = A.tocsr()
        f = irlba(A, IrlbaConfig(k=2, tol=1e-8, seed=10))
        Z = project(A, f)
        assert np.abs(Z[3]).max() == 0.0

    def test_near_full_rank_reconstruction(self):
        A = random_sparse(10, 9, 0.5, seed=20)
        k = 8  # min(m, n) - 1
        f = irlba(A, IrlbaConfig(k=k, work_size=9, tol=1e-10, seed=11))
        Z = project(A, f)
        recon = Z @ f.V.T
        dense_s = np.linalg.svd(A.toarray(), compute_uv=False)
        tail = np.sqrt((dense_s[k:] ** 2).sum())
        frob = np.linalg.norm(A.toarray() - recon)
        assert frob <= tail + 1e-8 * dense_s[0]

    def test_scaled_projection(self):
        A = random_sparse(30, 20, 0.3, seed=21)
        f = irlba(A, IrlbaConfig(k=4, tol=1e-9, seed=12))
        Z = project(A, f, scaled=True)
        assert np.abs(Z - f.U).max() <= 1e-8

    def test_dimension_mismatch(self):
        A = random_sparse(30, 20, 0.3, seed=22)
        f = irlba(A, IrlbaConfig(k=4, tol=1e-8, seed=13))
        with pytest.raises(DimensionMismatchError):
            project(sp.csr_matrix((5, 21)), f)


def test_save_load_roundtrip(tmp_path):
    A = random_sparse(25, 18, 0.3, seed=23)
    f = irlba(A, IrlbaConfig(k=3, tol=1e-8, seed=14))
    path = tmp_path / "factors.bin"
    save_factors(str(path), f)
    g = load_factors(str(path))
    assert g.U is None
    assert np.array_equal(g.s, f.s)
    assert np.array_equal(g.V, f.V)
    assert (g.k, g.tol, g.restarts, g.seed) == (f.k, f.tol, f.restarts, f.seed)


def test_oracle_sweep_with_subspace_angles():
    """Singular values to 1e-6 relative and subspaces to 1e-6 radians."""
    rng = np.random.default_rng(99)
    for trial in range(12):
        m = int(rng.integers(60, 300))
        n = int(rng.integers(60, 300))
        density = float(rng.uniform(0.02, 0.2))
        k = int(rng.integers(1, 12))
        A = random_sparse(m, n, density, seed=1000 + trial)
        f = irlba(A, IrlbaConfig(k=k, tol=1e-8, seed=trial))
        U_d, s_d, Vt_d = np.linalg.svd(A.toarray())
        rel = np.abs(f.s - s_d[:k]) / s_d[:k]
        assert rel.max() <= 1e-6, f"trial {trial}: rel {rel.max():.2e}"
        # group near-equal values, compare subspace angles per group
        groups = []
        start = 0
        for i in range(1, k):
            if s_d[i - 1] - s_d[i] > 1e-8 * s_d[0]:
                groups.append((start, i))
                start = i
        groups.append((start, k))
        for lo, hi in groups:
            # skip boundary-straddling groups (cluster extends past k)
            if hi == k and k < min(m, n) and s_d[k - 1] - s_d[k] <= 1e-8 * s_d[0]:
                continue
            for mine, oracle in ((f.V[:, lo:hi], Vt_d[lo:hi].T),
                                 (f.U[:, lo:hi], U_d[:, lo:hi])):
                sv = np.linalg.svd(mine.T @ oracle, compute_uv=False)
                angle = np.arccos(np.clip(sv.min(), -1.0, 1.0))
                assert angle <= 1e-6, f"trial {trial}: angle {angle:.2e}"
