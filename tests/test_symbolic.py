import numpy as np
import pytest

from repro.sparse.build import from_dense
from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian, random_spd
from repro.symbolic.analyze import analyze
from repro.symbolic.etree import NO_PARENT, elimination_tree, is_valid_etree
from repro.symbolic.pattern import symbolic_factor_pattern
from repro.symbolic.postorder import (
    children_lists,
    postorder,
    relabel_tree,
    subtree_sizes,
    tree_levels,
)
from repro.symbolic.supernodes import SupernodePartition, find_supernodes
from repro.symbolic.stree import build_supernodal_tree


def brute_force_etree(dense):
    """Reference elimination tree from a dense Cholesky fill pattern."""
    n = dense.shape[0]
    l = np.linalg.cholesky(dense)
    pattern = np.abs(l) > 1e-12
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    for j in range(n):
        below = np.flatnonzero(pattern[j + 1 :, j])
        if below.size:
            parent[j] = j + 1 + below[0]
    return parent


class TestEliminationTree:
    def test_tridiagonal_is_path(self):
        dense = np.diag([4.0] * 5) + np.diag([-1.0] * 4, 1) + np.diag([-1.0] * 4, -1)
        parent = elimination_tree(from_dense(dense))
        np.testing.assert_array_equal(parent, [1, 2, 3, 4, NO_PARENT])

    def test_matches_brute_force_on_grid(self, grid8):
        parent = elimination_tree(grid8)
        np.testing.assert_array_equal(parent, brute_force_etree(grid8.to_dense()))

    def test_matches_brute_force_on_random(self):
        a = random_spd(40, density=0.08, seed=5)
        parent = elimination_tree(a)
        np.testing.assert_array_equal(parent, brute_force_etree(a.to_dense()))

    def test_valid_structure(self, fe9):
        assert is_valid_etree(elimination_tree(fe9))

    def test_diagonal_matrix_is_forest_of_roots(self):
        a = from_dense(np.eye(4) * 2.0)
        parent = elimination_tree(a)
        assert all(p == NO_PARENT for p in parent)


class TestPostorder:
    def test_postorder_children_before_parents(self, grid8):
        parent = elimination_tree(grid8)
        post = postorder(parent)
        seen = set()
        for old in post.perm:
            for child in children_lists(parent)[old]:
                assert child in seen
            seen.add(int(old))

    def test_relabelled_tree_monotone(self, grid8):
        parent = elimination_tree(grid8)
        post = postorder(parent)
        parent2 = relabel_tree(parent, post)
        for j, p in enumerate(parent2):
            assert p == NO_PARENT or p > j

    def test_levels_root_zero(self, sym_grid8):
        lev = tree_levels(sym_grid8.etree_parent)
        roots = [j for j, p in enumerate(sym_grid8.etree_parent) if p == NO_PARENT]
        for r in roots:
            assert lev[r] == 0
        assert lev.min() == 0

    def test_levels_parent_child_differ_by_one(self, sym_grid8):
        parent = sym_grid8.etree_parent
        lev = tree_levels(parent)
        for j, p in enumerate(parent):
            if p != NO_PARENT:
                assert lev[j] == lev[p] + 1

    def test_subtree_sizes_root_total(self, sym_grid8):
        parent = sym_grid8.etree_parent
        sizes = subtree_sizes(parent)
        roots = [j for j, p in enumerate(parent) if p == NO_PARENT]
        assert sum(int(sizes[r]) for r in roots) == parent.shape[0]


class TestPattern:
    def test_pattern_contains_numeric_fill(self, sym_grid8):
        dense = sym_grid8.a_perm.to_dense()
        l = np.linalg.cholesky(dense)
        mask = np.zeros_like(l, dtype=bool)
        for j in range(dense.shape[0]):
            lo, hi = sym_grid8.l_indptr[j], sym_grid8.l_indptr[j + 1]
            mask[sym_grid8.l_indices[lo:hi], j] = True
        assert np.abs(l[~mask]).max() < 1e-12

    def test_pattern_exact_for_tridiagonal(self):
        dense = np.diag([4.0] * 5) + np.diag([-1.0] * 4, 1) + np.diag([-1.0] * 4, -1)
        a = from_dense(dense)
        parent = elimination_tree(a)
        indptr, indices = symbolic_factor_pattern(a, parent)
        assert int(indptr[-1]) == 9  # 5 diag + 4 subdiag, no fill

    def test_columns_diag_first_sorted(self, sym_grid8):
        for j in range(sym_grid8.n):
            lo, hi = sym_grid8.l_indptr[j], sym_grid8.l_indptr[j + 1]
            col = sym_grid8.l_indices[lo:hi]
            assert col[0] == j
            assert np.all(np.diff(col) > 0)

    def test_arrow_matrix_no_fill(self):
        # arrow pointing down-right: dense last row/col; zero fill
        n = 6
        dense = np.eye(n) * float(n)
        dense[-1, :] = dense[:, -1] = -1.0
        dense[-1, -1] = float(n)
        a = from_dense(dense)
        parent = elimination_tree(a)
        indptr, _ = symbolic_factor_pattern(a, parent)
        assert int(indptr[-1]) == 2 * n - 1

    def test_reverse_arrow_full_fill(self):
        # arrow pointing up-left: dense FIRST row/col => complete fill
        n = 6
        dense = np.eye(n) * float(n)
        dense[0, :] = dense[:, 0] = -1.0
        dense[0, 0] = float(n)
        a = from_dense(dense)
        parent = elimination_tree(a)
        indptr, _ = symbolic_factor_pattern(a, parent)
        assert int(indptr[-1]) == n * (n + 1) // 2


class TestSupernodes:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            SupernodePartition(np.array([1, 3]))  # must start at 0
        with pytest.raises(ValueError):
            SupernodePartition(np.array([0, 3, 3]))  # strictly increasing

    def test_partition_queries(self):
        part = SupernodePartition(np.array([0, 2, 5]))
        assert part.nsuper == 2
        assert part.columns(1) == (2, 5)
        assert part.width(0) == 2
        np.testing.assert_array_equal(part.column_to_supernode(), [0, 0, 1, 1, 1])

    def test_dense_block_single_supernode(self):
        # A fully dense SPD matrix is one supernode.
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 5))
        a = from_dense(m @ m.T + 5 * np.eye(5))
        parent = elimination_tree(a)
        counts = np.diff(symbolic_factor_pattern(a, parent)[0])
        part = find_supernodes(parent, counts)
        assert part.nsuper == 1

    def test_tridiagonal_no_merging(self):
        dense = np.diag([4.0] * 5) + np.diag([-1.0] * 4, 1) + np.diag([-1.0] * 4, -1)
        a = from_dense(dense)
        parent = elimination_tree(a)
        part = find_supernodes(parent, np.diff(symbolic_factor_pattern(a, parent)[0]))
        # every interior column has count 2 (diag + subdiag), so the
        # count(j) == count(j+1) + 1 rule only merges the last two columns
        assert part.nsuper == 4
        assert part.columns(3) == (3, 5)

    def test_fundamental_pattern_identical_within_supernode(self, sym_grid8):
        lptr, lidx = sym_grid8.l_indptr, sym_grid8.l_indices
        for s in range(sym_grid8.partition.nsuper):
            lo, hi = sym_grid8.partition.columns(s)
            first = set(int(i) for i in lidx[lptr[lo] : lptr[lo + 1]])
            for j in range(lo + 1, hi):
                colj = set(int(i) for i in lidx[lptr[j] : lptr[j + 1]])
                # nested-pattern property of fundamental supernodes
                assert colj == {i for i in first if i >= j}

    def test_relaxation_reduces_supernode_count(self):
        a = grid3d_laplacian(8)
        strict = analyze(a, relax=0).partition.nsuper
        relaxed = analyze(a, relax=2).partition.nsuper
        assert relaxed < strict

    @pytest.mark.parametrize("relax", [1, 2, 8])
    @pytest.mark.parametrize(
        "matrix_fn",
        [lambda: grid2d_laplacian(20), lambda: grid3d_laplacian(8)],
        ids=["grid2d20", "grid3d8"],
    )
    def test_relaxation_bounds_artificial_zeros_per_column(self, matrix_fn, relax):
        # The true column counts are relax=0's; a column of a supernode is
        # dense from its diagonal down to the supernode's last column, then
        # holds every below-row.
        a = matrix_fn()
        counts = np.diff(analyze(a, relax=0).l_indptr)
        stree = analyze(a, relax=relax).stree
        zeros = np.concatenate([
            np.arange(sn.n, sn.n - sn.t, -1) - counts[sn.col_lo : sn.col_hi]
            for sn in stree.supernodes
        ])
        assert zeros.min() == 0
        assert 0 < zeros.max() <= relax

    def test_relax_must_be_non_negative(self):
        a = grid2d_laplacian(4)
        parent = elimination_tree(a)
        with pytest.raises(ValueError, match="relax"):
            find_supernodes(parent, np.diff(symbolic_factor_pattern(a, parent)[0]), relax=-1)


class TestSupernodalTree:
    def test_rows_structure(self, sym_grid8):
        for sn in sym_grid8.stree.supernodes:
            t = sn.t
            np.testing.assert_array_equal(sn.rows[:t], np.arange(sn.col_lo, sn.col_hi))
            below = sn.rows[t:]
            assert np.all(below >= sn.col_hi)
            assert np.all(np.diff(below) > 0)

    def test_parent_owns_first_below_row(self, sym_grid8):
        stree = sym_grid8.stree
        col2sn = sym_grid8.partition.column_to_supernode()
        for s, sn in enumerate(stree.supernodes):
            if sn.n > sn.t:
                assert stree.parent[s] == col2sn[sn.below[0]]
            else:
                assert stree.parent[s] == NO_PARENT

    def test_levels_consistent(self, sym_grid8):
        stree = sym_grid8.stree
        for s in range(stree.nsuper):
            p = int(stree.parent[s])
            if p != NO_PARENT:
                assert stree.level[s] == stree.level[p] + 1

    def test_factor_nnz_matches_pattern(self, sym_grid8):
        assert sym_grid8.stree.factor_nnz() == sym_grid8.factor_nnz

    def test_children_inverse_of_parent(self, sym_grid8):
        stree = sym_grid8.stree
        for s in range(stree.nsuper):
            for c in stree.children[s]:
                assert stree.parent[c] == s

    def test_child_update_rows_inside_parent(self, sym_grid3d5):
        """The multifrontal invariant: a child's below rows are a subset of
        the parent's rows (columns + below)."""
        stree = sym_grid3d5.stree
        for s, sn in enumerate(stree.supernodes):
            p = int(stree.parent[s])
            if p == NO_PARENT:
                continue
            parent_rows = set(int(r) for r in stree.supernodes[p].rows)
            parent_cols = set(range(stree.supernodes[p].col_lo, stree.supernodes[p].col_hi))
            for r in sn.below:
                assert int(r) in parent_rows or int(r) in parent_cols


class TestAnalyzeDriver:
    def test_permutation_composes_ordering_and_postorder(self, grid8, rng):
        sym = analyze(grid8)
        x = rng.normal(size=grid8.n)
        from repro.sparse.ops import matvec

        b = matvec(grid8, x)
        # P A P^T (P x) == P b
        lhs = matvec(sym.a_perm, sym.perm.apply_to_vector(x))
        np.testing.assert_allclose(lhs, sym.perm.apply_to_vector(b), atol=1e-10)

    def test_postordered_etree(self, sym_grid8):
        for j, p in enumerate(sym_grid8.etree_parent):
            assert p == NO_PARENT or p > j

    def test_supernode_columns_contiguous_in_tree(self, sym_grid8):
        # within a supernode, column j's etree parent is j+1
        for s in range(sym_grid8.partition.nsuper):
            lo, hi = sym_grid8.partition.columns(s)
            for j in range(lo, hi - 1):
                assert sym_grid8.etree_parent[j] == j + 1

    def test_build_supernodal_tree_roundtrip(self, sym_grid8):
        stree2 = build_supernodal_tree(
            sym_grid8.l_indptr, sym_grid8.l_indices, sym_grid8.partition
        )
        assert stree2.nsuper == sym_grid8.stree.nsuper
        for a, b in zip(stree2.supernodes, sym_grid8.stree.supernodes):
            np.testing.assert_array_equal(a.rows, b.rows)
