import numpy as np
import pytest

from repro.numeric.simplicial import cholesky_simplicial
from repro.sparse.build import from_dense
from repro.sparse.csc import LowerCSC, SymCSC
from repro.sparse.ops import matvec, relative_residual, residual_norm


@pytest.fixture()
def pair(rng):
    dense = np.array(
        [
            [5.0, -1.0, 0.0, -2.0],
            [-1.0, 4.0, -1.0, 0.0],
            [0.0, -1.0, 4.0, -1.0],
            [-2.0, 0.0, -1.0, 6.0],
        ]
    )
    return from_dense(dense), dense


class TestMatvec:
    def test_vector(self, pair, rng):
        a, dense = pair
        x = rng.normal(size=4)
        np.testing.assert_allclose(matvec(a, x), dense @ x)

    def test_matrix_rhs(self, pair, rng):
        a, dense = pair
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(matvec(a, x), dense @ x)

    def test_multi_rhs_matches_dense_on_a_grid(self, grid8, rng):
        # Exercises both halves of the symmetric product (lower triangle
        # and its mirror) on a matrix big enough to have long columns.
        x = rng.normal(size=(grid8.n, 5))
        np.testing.assert_allclose(matvec(grid8, x), grid8.to_dense() @ x, atol=1e-12)

    def test_empty_column(self, rng):
        # Column 1 stores nothing at all (a zero diagonal with no
        # off-diagonals): segment-sum formulations trip over the empty range.
        a = SymCSC(
            n=3,
            indptr=np.array([0, 2, 2, 3]),
            indices=np.array([0, 2, 2]),
            data=np.array([4.0, -1.0, 3.0]),
        )
        x = rng.normal(size=(3, 2))
        np.testing.assert_allclose(matvec(a, x), a.to_dense() @ x)
        assert np.array_equal(matvec(a, x)[1], np.zeros(2))

    def test_preserves_shape(self, pair, rng):
        a, _ = pair
        assert matvec(a, rng.normal(size=4)).shape == (4,)
        assert matvec(a, rng.normal(size=(4, 2))).shape == (4, 2)


class TestLowerTriangularMatvec:
    """``L @ x`` through the factor's scipy view, ``LowerCSC.to_scipy``."""

    def test_matches_dense(self, grid8, rng):
        from repro.symbolic.analyze import analyze

        sym = analyze(grid8)
        l = cholesky_simplicial(sym)
        x = rng.normal(size=(grid8.n, 2))
        np.testing.assert_allclose(
            l.to_scipy() @ x, l.to_dense() @ x, atol=1e-12
        )

    def test_empty_column(self, rng):
        l = LowerCSC(
            n=3,
            indptr=np.array([0, 2, 2, 3]),
            indices=np.array([0, 2, 2]),
            data=np.array([2.0, 0.5, 1.5]),
        )
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(l.to_scipy() @ x, l.to_dense() @ x)

    def test_vector_shape(self, grid8, rng):
        from repro.symbolic.analyze import analyze

        sym = analyze(grid8)
        l = cholesky_simplicial(sym)
        assert (l.to_scipy() @ rng.normal(size=grid8.n)).shape == (grid8.n,)


class TestResiduals:
    def test_exact_solution_zero_residual(self, pair):
        a, dense = pair
        x = np.ones(4)
        b = dense @ x
        assert residual_norm(a, x, b) < 1e-12
        assert relative_residual(a, x, b) < 1e-13

    def test_wrong_solution_positive_residual(self, pair):
        a, dense = pair
        b = dense @ np.ones(4)
        assert residual_norm(a, np.zeros(4), b) == pytest.approx(np.linalg.norm(b))

    def test_relative_residual_zero_rhs_safe(self, pair):
        a, _ = pair
        assert np.isfinite(relative_residual(a, np.zeros(4), np.zeros(4)))
