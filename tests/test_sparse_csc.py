import numpy as np
import pytest

from repro.sparse.build import from_dense, from_scipy, from_triplets
from repro.sparse.csc import LowerCSC


@pytest.fixture()
def small_sym():
    dense = np.array(
        [
            [4.0, -1.0, 0.0, 0.0],
            [-1.0, 4.0, -1.0, 0.0],
            [0.0, -1.0, 4.0, -1.0],
            [0.0, 0.0, -1.0, 4.0],
        ]
    )
    return from_dense(dense), dense


class TestSymCSC:
    def test_to_dense_roundtrip(self, small_sym):
        a, dense = small_sym
        np.testing.assert_allclose(a.to_dense(), dense)

    def test_nnz_counts(self, small_sym):
        a, _ = small_sym
        assert a.nnz_lower == 7  # 4 diagonal + 3 subdiagonal
        assert a.nnz == 10

    def test_diagonal(self, small_sym):
        a, _ = small_sym
        np.testing.assert_allclose(a.diagonal(), [4, 4, 4, 4])

    def test_column_is_diag_first_sorted(self, small_sym):
        a, _ = small_sym
        rows, vals = a.column(1)
        assert rows[0] == 1
        assert list(rows) == sorted(rows)

    def test_column_out_of_range(self, small_sym):
        a, _ = small_sym
        with pytest.raises(IndexError):
            a.column(4)

    def test_to_scipy_matches_dense(self, small_sym):
        a, dense = small_sym
        np.testing.assert_allclose(a.to_scipy().toarray(), dense)

    def test_pattern_full_symmetric(self, small_sym):
        a, dense = small_sym
        indptr, indices = a.pattern_full()
        counts = np.diff(indptr)
        np.testing.assert_array_equal(counts, (dense != 0).sum(axis=0))

    def test_permuted_is_papt(self, small_sym):
        a, dense = small_sym
        perm = np.array([2, 0, 3, 1])
        ap = a.permuted(perm)
        p = np.zeros((4, 4))
        p[np.arange(4), perm] = 1.0
        np.testing.assert_allclose(ap.to_dense(), p @ dense @ p.T)

    def test_permuted_rejects_bad_length(self, small_sym):
        a, _ = small_sym
        with pytest.raises(ValueError):
            a.permuted(np.array([0, 1]))

    def test_permuted_carries_coords(self):
        from repro.sparse.generators import grid2d_laplacian

        a = grid2d_laplacian(3)
        perm = np.arange(a.n)[::-1].copy()
        ap = a.permuted(perm)
        np.testing.assert_allclose(ap.coords, a.coords[perm])


class TestLowerCSC:
    def test_dense_roundtrip(self):
        l = LowerCSC(
            n=3,
            indptr=np.array([0, 2, 3, 4]),
            indices=np.array([0, 2, 1, 2]),
            data=np.array([2.0, -1.0, 3.0, 1.5]),
        )
        expect = np.array([[2.0, 0, 0], [0, 3.0, 0], [-1.0, 0, 1.5]])
        np.testing.assert_allclose(l.to_dense(), expect)
        np.testing.assert_allclose(l.to_scipy().toarray(), expect)

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            LowerCSC(
                n=2,
                indptr=np.array([0, 2, 1]),  # decreasing
                indices=np.array([0, 1]),
                data=np.array([1.0, 1.0]),
            )

    def test_validation_rejects_row_out_of_range(self):
        with pytest.raises(ValueError):
            LowerCSC(
                n=2,
                indptr=np.array([0, 1, 2]),
                indices=np.array([0, 5]),
                data=np.array([1.0, 1.0]),
            )


class TestTripletAssembly:
    def test_duplicates_summed(self):
        a = from_triplets(2, [1, 1], [0, 0], [2.0, 3.0])
        assert a.to_dense()[1, 0] == 5.0

    def test_upper_entries_mirrored_to_lower(self):
        a = from_triplets(3, [0], [2], [7.0])
        d = a.to_dense()
        assert d[2, 0] == 7.0 and d[0, 2] == 7.0

    def test_structural_zero_diagonal_always_present(self):
        a = from_triplets(2, [1], [0], [1.0])
        rows, _ = a.column(0)
        assert rows[0] == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_triplets(2, [2], [0], [1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            from_triplets(2, [0, 1], [0], [1.0])


class TestFromDense:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            from_dense(np.zeros((2, 3)))

    def test_tolerance_drops_noise(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 1e-15
        a = from_dense(m, tol=1e-12)
        assert a.nnz_lower == 3


class TestFromScipy:
    @pytest.fixture()
    def spd(self):
        rng = np.random.default_rng(2024)
        m = rng.normal(size=(12, 12))
        m[np.abs(m) < 1.0] = 0.0  # keep it sparse
        dense = m + m.T
        return dense + np.diag(np.abs(dense).sum(axis=1) + 1.0)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_round_trips_against_from_dense(self, spd, fmt):
        from scipy import sparse

        got = from_scipy(sparse.csr_matrix(spd).asformat(fmt))
        want = from_dense(spd)
        assert got.n == want.n
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(got.to_dense(), spd)

    def test_rejects_non_square(self):
        from scipy import sparse

        with pytest.raises(ValueError, match="square"):
            from_scipy(sparse.csr_matrix(np.ones((2, 3))))

    def test_rejects_non_symmetric(self, spd):
        from scipy import sparse

        skewed = spd.copy()
        skewed[0, 5] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            from_scipy(sparse.csr_matrix(skewed))
