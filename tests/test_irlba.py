import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ctfidf.exceptions import (
    ConfigError,
    DimensionMismatchError,
    NoConvergenceError,
)
from ctfidf.irlba import (
    _ROTATE_ROWS,
    SvdFactors,
    _orthogonalize,
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
    k = f.s.shape[0]
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
        f = irlba(A, 2, tol=1e-10, seed=3)
        assert np.abs(f.s - 1.0).max() <= 1e-10
        check_factors(A, f, 1e-10)

    def test_known_diagonal_spectrum(self):
        A = sp.csr_matrix(np.diag([3.0, 2.0, 1.0]))
        f = irlba(A, 2, tol=1e-10, seed=0)
        assert np.abs(f.s - [3.0, 2.0]).max() <= 1e-9
        check_factors(A, f, 1e-10)

    def test_random_sparse_vs_dense_oracle(self):
        A = random_sparse(200, 150, 0.02, seed=11)
        f = irlba(A, 10, tol=1e-8, seed=1)
        dense = np.linalg.svd(A.toarray(), compute_uv=False)[:10]
        rel = np.abs(f.s - dense) / dense
        assert rel.max() <= 1e-6
        check_factors(A, f, 1e-8)

    def test_wide_matrix(self):
        A = random_sparse(60, 180, 0.05, seed=12)
        f = irlba(A, 7, tol=1e-8, seed=2)
        dense = np.linalg.svd(A.toarray(), compute_uv=False)[:7]
        assert (np.abs(f.s - dense) / dense).max() <= 1e-6
        check_factors(A, f, 1e-8)

    def test_determinism(self):
        A = random_sparse(80, 50, 0.1, seed=13)
        f1 = irlba(A, 5, tol=1e-8, seed=21)
        f2 = irlba(A, 5, tol=1e-8, seed=21)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.V, f2.V)
        assert f1.restarts == f2.restarts

    def test_scale_equivariance(self):
        A = random_sparse(50, 40, 0.15, seed=14)
        f1 = irlba(A, 4, tol=1e-9, seed=5)
        f2 = irlba(A * 2.0, 4, tol=1e-9, seed=5)
        assert np.allclose(f2.s, 2.0 * f1.s, rtol=1e-10)
        assert np.allclose(np.abs(f2.V.T @ f1.V), np.eye(4), atol=1e-6)

    def test_rank_deficient_matrix(self):
        # ask for more values than the rank: trailing values are ~0. The
        # tall and wide rank-5 inputs make the local reorthogonalization
        # step cancel, and lose orthonormality if it is not redone.
        for (m, n), rank, k, data_seed, seed in (((40, 30), 3, 5, 15, 6),
                                                 ((300, 100), 5, 20, 1000, 0),
                                                 ((100, 300), 5, 20, 1000, 0)):
            rng = np.random.default_rng(data_seed)
            L = rng.standard_normal((m, rank))
            R = rng.standard_normal((rank, n))
            A = sp.csr_matrix(L @ R)
            f = irlba(A, k, tol=1e-8, seed=seed)
            dense = np.linalg.svd(A.toarray(), compute_uv=False)
            assert np.abs(f.s[:rank] - dense[:rank]).max() <= 1e-6 * dense[0]
            assert f.s[rank] <= 1e-8 * dense[0]
            check_factors(A, f, 1e-8)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rank_deficient_and_near_tied_spectra(self, data):
        """Planted spectra: random orthogonal factors, a rank that may fall
        short of k, and s_{k+1} within 1e-12 to 1e-4 of s_k (relative).

        The values are uniform draws, so none repeats exactly among the top
        k: one start vector's Krylov space holds a single direction of each
        distinct value, and IRLBA can return s_{k+1} for a second copy of
        s_k (a known limit of the single-vector method).
        """
        m, n = data.draw(st.integers(20, 80)), data.draw(st.integers(20, 80))
        k = data.draw(st.integers(1, 10))
        rank = data.draw(st.integers(1, min(m, n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        s = np.sort(rng.uniform(0.1, 10.0, rank))[::-1]
        if rank > k:
            s[k] = s[k - 1] * (1.0 - 10.0 ** -data.draw(st.floats(4.0, 12.0)))
            s[k + 1:] = np.minimum(s[k + 1:], s[k])
        L = np.linalg.qr(rng.standard_normal((m, rank)))[0]
        R = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        A = sp.csr_matrix((L * s) @ R.T)
        f = irlba(A, k, tol=1e-8, seed=data.draw(st.integers(0, 2**16)))
        dense = np.linalg.svd(A.toarray(), compute_uv=False)[:k]
        assert np.abs(f.s - dense).max() <= 1e-6 * dense[0]
        check_factors(A, f, 1e-8)

    def test_graded_spectrum_down_to_rounding(self):
        # values from 1 down to 1e-12 and k = r - 1: alpha_j falls far
        # below the norm estimate, and the local U step's rounding then
        # breaks U unless the step is redone against all of U
        for m, n in ((200, 60), (60, 200), (150, 150)):
            r = min(m, n)
            rng = np.random.default_rng(3)
            L = np.linalg.qr(rng.standard_normal((m, r)))[0]
            R = np.linalg.qr(rng.standard_normal((n, r)))[0]
            A = sp.csr_matrix((L * np.logspace(0, -12, r)) @ R.T)
            f = irlba(A, r - 1, tol=1e-8, seed=1)
            check_factors(A, f, 1e-8)

    def test_residual_is_the_worst_ritz_residual(self):
        for m, n in ((120, 80), (80, 120)):
            A = random_sparse(m, n, 0.05, seed=25)
            f = irlba(A, 6, tol=1e-6, seed=4)
            r1 = np.linalg.norm(A @ f.V - f.U * f.s, axis=0).max()
            r2 = np.linalg.norm(A.T @ f.U - f.V * f.s, axis=0).max()
            assert 0 < f.residual <= 1e-6
            assert abs(max(r1, r2) / f.s[0] - f.residual) <= 1e-12
            with pytest.raises(NoConvergenceError) as err:
                irlba(A, 6, tol=1e-14, max_restarts=0, seed=4)
            assert err.value.best.residual > 1e-14

    def test_rotation_across_row_blocks_vs_dense_oracle(self):
        # both bases span several rotation blocks, the last one partial,
        # and the fit restarts: each restart rotates U and V block by block
        for m, n in ((3 * _ROTATE_ROWS + 77, _ROTATE_ROWS + 40),
                     (_ROTATE_ROWS + 40, 3 * _ROTATE_ROWS + 77)):
            A = random_sparse(m, n, 0.02, seed=18)
            f = irlba(A, 12, tol=1e-8, seed=4)
            assert f.restarts >= 2
            dense = np.linalg.svd(A.toarray(), compute_uv=False)[:12]
            assert (np.abs(f.s - dense) / dense).max() <= 1e-6
            check_factors(A, f, 1e-8)

    def test_peak_memory_is_the_bases(self):
        """The traced peak inside irlba stays below its two Lanczos bases,
        with slack for the small matrix B, its SVD and one rotation block:
        each factor is formed inside its basis, which then shrinks to it.
        Forming a restart's rotation or the final factors as whole
        products beside both bases exceeds it. The factors come back
        C-contiguous, as ``X @ V`` and ``save_factors`` read them."""
        for m, n in ((3000, 2000), (2000, 3000)):
            k = 30
            A = random_sparse(m, n, 0.01, seed=1)
            work = min(k + max(20, k // 2), m, n)  # irlba's basis size
            tracemalloc.start()
            try:
                f = irlba(A, k, tol=1e-8, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert f.restarts >= 2
            assert f.U.flags.c_contiguous and f.V.flags.c_contiguous
            # float64 entries; a wide A runs transposed, and its copy too
            bases = max(m, n) * work + min(m, n) * (work + 1)
            copy = A.nnz * 12 // 8 if m < n else 0
            slack = 3 * work * work + _ROTATE_ROWS * work
            assert peak <= 8 * (bases + copy + slack)

    def test_zero_matrix(self):
        A = sp.csr_matrix((20, 15))
        f = irlba(A, 3, tol=1e-8, seed=7)
        assert (f.s == 0).all()
        assert np.abs(f.U.T @ f.U - np.eye(3)).max() <= 1e-8
        assert np.abs(f.V.T @ f.V - np.eye(3)).max() <= 1e-8

    def test_no_convergence_payload(self):
        for m, n in ((100, 90), (60, 150)):
            A = random_sparse(m, n, 0.05, seed=16)
            with pytest.raises(NoConvergenceError) as err:
                irlba(A, 10, tol=1e-14, max_restarts=0, seed=8)
            best = err.value.best
            assert best is not None
            assert best.s.shape == (10,)
            assert best.U.shape == (m, 10)
            assert best.V.shape == (n, 10)
            assert best.residual > 1e-14
            # the sign rule holds for unconverged factors too
            size = np.abs(best.V)
            decisive = np.argmax(size >= (1 - 1e-8) * size.max(axis=0), axis=0)
            assert (best.V[decisive, np.arange(10)] > 0).all()

    def test_config_validation(self):
        A = random_sparse(30, 20, 0.2, seed=17)
        for k, tol, field in ((0, 1e-5, "k"), (20, 1e-5, "k"),
                              (5, -1.0, "tol"), (5, 0.0, "tol")):
            with pytest.raises(ConfigError) as err:
                irlba(A, k, tol=tol)
            assert err.value.field == field


class TestSigns:
    def test_start_seed_does_not_flip_columns(self):
        # the small SVD's sign choice negates about half of these 20
        # columns between the two start vectors when no rule fixes it
        for m, n in ((400, 300), (300, 400)):
            A = random_sparse(m, n, 0.02, seed=18)
            a = irlba(A, 20, tol=1e-10, seed=4)
            b = irlba(A, 20, tol=1e-10, seed=5)
            assert np.abs(a.V - b.V).max() <= 1e-8
            assert np.abs(a.U - b.U).max() <= 1e-8
            check_factors(A, a, 1e-10)

    def test_near_tie_goes_to_the_lowest_index(self):
        """The leading right singular vector's two largest entries are
        -0.5 and +0.5 (1 + 1e-9): within the tie tolerance, so entry 2,
        not the slightly larger entry 5, decides the column's sign."""
        m, n, r = 60, 40, 8
        rng = np.random.default_rng(7)
        v = rng.uniform(-0.2, 0.2, n)
        v[2], v[5] = -0.5, 0.5 * (1 + 1e-9)
        R = np.linalg.qr(np.column_stack(
            [v, rng.standard_normal((n, r - 1))]))[0]
        R[:, 0] *= np.sign(R[:, 0] @ v)  # R's first column is v / ||v||
        L = np.linalg.qr(rng.standard_normal((m, r)))[0]
        A = sp.csr_matrix((L * np.linspace(10.0, 3.0, r)) @ R.T)
        for seed in range(4):
            f = irlba(A, 3, tol=1e-10, seed=seed)
            assert f.V[2, 0] > 0 > f.V[5, 0]
            assert np.abs(f.V[:, 0] + R[:, 0]).max() <= 1e-8
            check_factors(A, f, 1e-10)


class TestOrthogonalize:
    @pytest.mark.parametrize("inside, passes", ((0.9999, 2), (1e-3, 1)))
    def test_second_pass_only_when_needed(self, inside, passes):
        """``inside`` is the share of the input's norm in span(Q)."""
        rng = np.random.default_rng(24)
        Q = np.linalg.qr(rng.standard_normal((200, 30)))[0]
        a = Q @ rng.standard_normal(30)
        b = rng.standard_normal(200)
        b -= Q @ (Q.T @ b)
        b -= Q @ (Q.T @ b)
        w_in = (inside * a / np.linalg.norm(a)
                + np.sqrt(1 - inside ** 2) * b / np.linalg.norm(b))
        w_out, c = _orthogonalize(Q, w_in)
        # one pass gives exactly this; a second pass changes it
        one_pass = w_in - Q @ (Q.T @ w_in)
        assert np.array_equal(w_out, one_pass) == (passes == 1)
        assert np.abs(Q.T @ w_out).max() <= 1e-14 * np.linalg.norm(w_out)
        assert np.linalg.norm(Q @ c + w_out - w_in) <= 1e-14


class TestProject:
    def test_training_projection_equals_us(self):
        A = random_sparse(60, 45, 0.1, seed=18)
        f = irlba(A, 6, tol=1e-9, seed=9)
        Z = project(A, f)
        assert np.abs(Z - f.U * f.s).max() <= 1e-9 * f.s[0]

    def test_zero_row_projects_to_zero(self):
        A = random_sparse(10, 8, 0.4, seed=19).tolil()
        A[3, :] = 0
        A = A.tocsr()
        f = irlba(A, 2, tol=1e-8, seed=10)
        Z = project(A, f)
        assert np.abs(Z[3]).max() == 0.0

    def test_near_full_rank_reconstruction(self):
        A = random_sparse(10, 9, 0.5, seed=20)
        k = 8  # min(m, n) - 1
        f = irlba(A, k, tol=1e-10, seed=11)
        Z = project(A, f)
        recon = Z @ f.V.T
        dense_s = np.linalg.svd(A.toarray(), compute_uv=False)
        tail = np.sqrt((dense_s[k:] ** 2).sum())
        frob = np.linalg.norm(A.toarray() - recon)
        assert frob <= tail + 1e-8 * dense_s[0]

    def test_dimension_mismatch(self):
        A = random_sparse(30, 20, 0.3, seed=22)
        f = irlba(A, 4, tol=1e-8, seed=13)
        with pytest.raises(DimensionMismatchError):
            project(sp.csr_matrix((5, 21)), f)


def test_save_load_roundtrip(tmp_path):
    A = random_sparse(25, 18, 0.3, seed=23)
    f = irlba(A, 3, tol=1e-8, seed=14)
    path = tmp_path / "factors.bin"
    save_factors(str(path), f)
    # only what projecting and the report read: no U, and no settings,
    # which report.json records
    with np.load(path) as z:
        assert sorted(z.files) == ["V", "residual", "restarts", "s"]
    g = load_factors(str(path))
    assert g.U is None
    assert np.array_equal(g.s, f.s)
    assert np.array_equal(g.V, f.V)
    assert (g.restarts, g.residual) == (f.restarts, f.residual)


def test_save_writes_the_savez_bytes_without_copying_v(tmp_path):
    """The container is byte for byte what ``np.savez`` writes, and saving
    holds no copy of V: V is written a block of rows at a time, which a V
    not in C order copies one block at a time."""
    rng = np.random.default_rng(5)
    V = rng.standard_normal((6 * 512 + 7, 40))
    f = SvdFactors(U=None, s=np.sort(rng.random(40))[::-1].copy(), V=V,
                   restarts=4, residual=2.5e-7)
    expected = io.BytesIO()
    np.savez(expected, s=f.s, V=V, restarts=4, residual=2.5e-7)
    path = tmp_path / "factors.bin"
    for factors in (f, dataclasses.replace(f, V=np.asfortranarray(V))):
        tracemalloc.start()
        try:
            save_factors(str(path), factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == expected.getvalue()
        assert peak < V.nbytes / 4


def test_oracle_sweep_with_subspace_angles():
    """Singular values to 1e-6 relative and subspaces to 1e-6 radians."""
    rng = np.random.default_rng(99)
    for trial in range(12):
        m = int(rng.integers(60, 300))
        n = int(rng.integers(60, 300))
        density = float(rng.uniform(0.02, 0.2))
        k = int(rng.integers(1, 12))
        A = random_sparse(m, n, density, seed=1000 + trial)
        f = irlba(A, k, tol=1e-8, seed=trial)
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
