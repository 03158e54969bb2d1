import re

import numpy as np
import pytest

from repro.numeric.frontal import (
    NotPositiveDefiniteError,
    dense_cholesky,
    trsm_lower,
    trsm_lower_t,
)
from repro.numeric.simplicial import cholesky_simplicial
from repro.numeric.supernodal import cholesky_supernodal
from repro.numeric.trisolve import (
    backward_simplicial,
    backward_supernodal,
    forward_simplicial,
    forward_supernodal,
    solve_supernodal,
)
from repro.sparse.build import from_dense
from repro.sparse.csc import SymCSC
from repro.sparse.generators import fe_mesh_3d, grid2d_laplacian, grid3d_laplacian, random_spd
from repro.symbolic.analyze import analyze
from repro.util.segments import segment_ids


class TestFrontalKernels:
    def test_dense_cholesky_matches_numpy(self, rng):
        m = rng.normal(size=(6, 6))
        a = m @ m.T + 6 * np.eye(6)
        np.testing.assert_allclose(dense_cholesky(a), np.linalg.cholesky(a))

    def test_dense_cholesky_reads_lower_only(self, rng):
        m = rng.normal(size=(5, 5))
        a = m @ m.T + 5 * np.eye(5)
        junk = a.copy()
        junk[np.triu_indices(5, 1)] = 1e9  # garbage above the diagonal
        np.testing.assert_allclose(dense_cholesky(junk), np.linalg.cholesky(a))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            dense_cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_trsm_roundtrip(self, rng):
        l = np.tril(rng.normal(size=(5, 5))) + 5 * np.eye(5)
        b = rng.normal(size=(5, 3))
        np.testing.assert_allclose(l @ trsm_lower(l, b), b)
        np.testing.assert_allclose(l.T @ trsm_lower_t(l, b), b)

    def test_trsm_empty(self):
        assert trsm_lower(np.zeros((0, 0)), np.zeros((0, 2))).shape == (0, 2)


class TestSimplicialCholesky:
    @pytest.mark.parametrize(
        "matrix_fn",
        [
            lambda: grid2d_laplacian(9),
            lambda: random_spd(50, density=0.06, seed=2),
            lambda: fe_mesh_3d(4, seed=1),
        ],
    )
    def test_l_lt_reconstructs_a(self, matrix_fn):
        a = matrix_fn()
        sym = analyze(a)
        l = cholesky_simplicial(sym).to_dense()
        np.testing.assert_allclose(l @ l.T, sym.a_perm.to_dense(), atol=1e-10)

    def test_matches_numpy_factor(self, sym_grid8):
        l = cholesky_simplicial(sym_grid8).to_dense()
        np.testing.assert_allclose(
            l, np.linalg.cholesky(sym_grid8.a_perm.to_dense()), atol=1e-12
        )

    def test_rejects_indefinite(self):
        a = from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        sym = analyze(a, method="natural")
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_simplicial(sym)


class TestSupernodalCholesky:
    @pytest.mark.parametrize(
        "matrix_fn",
        [
            lambda: grid2d_laplacian(9),
            lambda: random_spd(50, density=0.06, seed=2),
            lambda: fe_mesh_3d(4, seed=1),
        ],
    )
    def test_matches_simplicial(self, matrix_fn):
        a = matrix_fn()
        sym = analyze(a)
        ls = cholesky_simplicial(sym).to_dense()
        lf = cholesky_supernodal(sym).to_dense()
        np.testing.assert_allclose(lf, ls, atol=1e-11)

    def test_failed_pivot_names_the_supernode_and_its_columns(self):
        a = grid2d_laplacian(9)
        victim = 40
        data = a.data.copy()
        data[a.indptr[victim]] *= -1.0  # the diagonal leads its column
        sym = analyze(SymCSC(a.n, a.indptr, a.indices, data, a.coords))
        with pytest.raises(NotPositiveDefiniteError) as caught:
            cholesky_supernodal(sym)
        named = re.search(r"supernode (\d+) \(columns \[(\d+), (\d+)\)", str(caught.value))
        assert named, str(caught.value)
        s, lo, hi = map(int, named.groups())
        assert sym.partition.columns(s) == (lo, hi)
        # Columns ahead of the victim factor as in the SPD matrix, so the
        # first failing pivot is the negated entry's own column.
        assert lo <= sym.perm.inverse().perm[victim] < hi

    def test_relaxed_supernodes_still_correct(self):
        a = grid2d_laplacian(10)
        sym = analyze(a, relax=4)
        l = cholesky_supernodal(sym).to_dense()
        np.testing.assert_allclose(l @ l.T, sym.a_perm.to_dense(), atol=1e-10)

    def test_relaxed_factor_stores_exact_zeros_outside_the_pattern(self):
        # Amalgamation stores entries that the pattern of L does not have;
        # multifrontal assembly must leave every one of them exactly 0.0.
        sym = analyze(grid3d_laplacian(8), relax=2)
        factor = cholesky_supernodal(sym)
        in_pattern = np.zeros((sym.n, sym.n), dtype=bool)
        in_pattern[sym.l_indices, segment_ids(sym.l_indptr)] = True
        artificial = 0
        for sn, block in zip(sym.stree.supernodes, factor.blocks):
            lower = np.tril(np.ones(block.shape, dtype=bool))  # trapezoid entries
            outside = lower & ~in_pattern[np.ix_(sn.rows, np.arange(sn.col_lo, sn.col_hi))]
            assert np.all(block[outside] == 0.0), sn.index
            artificial += int(outside.sum())
        assert artificial > 0

    def test_to_lower_csc_matches_dense(self, sym_grid8):
        f = cholesky_supernodal(sym_grid8)
        csc = f.to_lower_csc(sym_grid8.l_indptr, sym_grid8.l_indices)
        np.testing.assert_allclose(csc.to_dense(), f.to_dense(), atol=1e-14)

    def test_nnz_reported(self, sym_grid8):
        f = cholesky_supernodal(sym_grid8)
        assert f.nnz() == sym_grid8.stree.factor_nnz()

    def test_block_shapes(self, sym_grid8):
        f = cholesky_supernodal(sym_grid8)
        for sn, blk in zip(sym_grid8.stree.supernodes, f.blocks):
            assert blk.shape == (sn.n, sn.t)
            # top square is lower triangular
            top = blk[: sn.t, :]
            assert np.abs(np.triu(top, 1)).max() == 0.0


class TestSerialTrisolve:
    @pytest.fixture(scope="class")
    def factored(self):
        a = grid2d_laplacian(9)
        sym = analyze(a)
        return a, sym, cholesky_simplicial(sym), cholesky_supernodal(sym)

    def test_forward_simplicial(self, factored, rng):
        _, sym, l, _ = factored
        b = rng.normal(size=(sym.n, 2))
        y = forward_simplicial(l, b)
        np.testing.assert_allclose(l.to_dense() @ y, b, atol=1e-10)

    def test_backward_simplicial(self, factored, rng):
        _, sym, l, _ = factored
        b = rng.normal(size=sym.n)
        x = backward_simplicial(l, b)
        np.testing.assert_allclose(l.to_dense().T @ x, b, atol=1e-10)

    def test_forward_supernodal_matches_simplicial(self, factored, rng):
        _, sym, l, f = factored
        b = rng.normal(size=(sym.n, 3))
        np.testing.assert_allclose(
            forward_supernodal(f, b), forward_simplicial(l, b), atol=1e-11
        )

    def test_backward_supernodal_matches_simplicial(self, factored, rng):
        _, sym, l, f = factored
        b = rng.normal(size=(sym.n, 3))
        np.testing.assert_allclose(
            backward_supernodal(f, b), backward_simplicial(l, b), atol=1e-11
        )

    def test_full_solve_residual(self, factored, rng):
        a, sym, _, f = factored
        from repro.sparse.ops import relative_residual

        b = rng.normal(size=(a.n, 4))
        bp = sym.perm.apply_to_vector(b)
        x = sym.perm.unapply_to_vector(solve_supernodal(f, bp))
        assert relative_residual(a, x, b) < 1e-12

    def test_vector_shape_preserved(self, factored, rng):
        _, sym, _, f = factored
        b = rng.normal(size=sym.n)
        assert forward_supernodal(f, b).shape == (sym.n,)
        assert backward_supernodal(f, b).shape == (sym.n,)

    def test_rhs_size_validation(self, factored):
        _, _, _, f = factored
        with pytest.raises(ValueError):
            forward_supernodal(f, np.zeros(3))

    def test_multiple_rhs_columns_independent(self, factored, rng):
        """Solving a block is identical to solving each column alone."""
        _, sym, _, f = factored
        b = rng.normal(size=(sym.n, 3))
        block = solve_supernodal(f, b)
        for k in range(3):
            np.testing.assert_allclose(solve_supernodal(f, b[:, k]), block[:, k], atol=1e-12)

    def test_matches_scipy(self, factored, rng):
        a, sym, _, f = factored
        from scipy.sparse.linalg import spsolve

        b = rng.normal(size=a.n)
        bp = sym.perm.apply_to_vector(b)
        x = sym.perm.unapply_to_vector(solve_supernodal(f, bp))
        xs = spsolve(a.to_scipy().tocsc(), b)
        np.testing.assert_allclose(x, xs, atol=1e-9)
