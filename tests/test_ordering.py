import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph.structure import adjacency_from_matrix
from repro.ordering.api import order
from repro.ordering.minimum_degree import minimum_degree
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.permutation import Permutation
from repro.ordering.rcm import reverse_cuthill_mckee
from repro.sparse.build import from_triplets
from repro.sparse.generators import grid2d_laplacian, random_spd
from repro.symbolic.analyze import analyze
from tests._setup_oracles import subgraph


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        np.testing.assert_array_equal(p.perm, [0, 1, 2, 3])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

    def test_inverse_roundtrip(self):
        p = Permutation(np.array([2, 0, 3, 1]))
        q = p.inverse()
        np.testing.assert_array_equal(q.perm[p.perm], np.arange(4))

    def test_apply_unapply_roundtrip(self, rng):
        p = Permutation(np.array([2, 0, 3, 1]))
        x = rng.normal(size=4)
        np.testing.assert_allclose(p.unapply_to_vector(p.apply_to_vector(x)), x)

    def test_apply_matrix_rhs(self, rng):
        p = Permutation(np.array([1, 2, 0]))
        x = rng.normal(size=(3, 2))
        np.testing.assert_allclose(p.apply_to_vector(x), x[p.perm])

    def test_equality(self):
        assert Permutation.identity(3) == Permutation(np.arange(3))
        assert Permutation.identity(3) != Permutation(np.array([1, 0, 2]))


@given(st.permutations(list(range(8))))
def test_permutation_inverse_property(perm_list):
    p = Permutation(np.array(perm_list))
    assert p.inverse().inverse() == p


class TestMinimumDegree:
    def test_is_permutation(self, grid8):
        g = adjacency_from_matrix(grid8)
        p = minimum_degree(g)
        assert p.n == grid8.n  # Permutation validates internally

    def test_star_graph_center_last(self):
        # star: center 0 connected to 1..5; MD must eliminate leaves first
        from repro.sparse.build import from_triplets

        a = from_triplets(6, [1, 2, 3, 4, 5], [0] * 5, [-1.0] * 5)
        g = adjacency_from_matrix(a)
        p = minimum_degree(g)
        # leaves (degree 1) are eliminated before the center (degree 5);
        # once one leaf remains, the center ties it at degree 1 and the
        # index tie-break may pick either, so the center lands in the
        # last two positions.
        assert 0 in list(p.perm[-2:])

    def test_reduces_fill_vs_natural(self, grid8):
        fill_md = analyze(grid8, method="minimum_degree").factor_nnz
        fill_nat = analyze(grid8, method="natural").factor_nnz
        assert fill_md < fill_nat


class TestNestedDissection:
    def test_is_permutation(self, grid8):
        g = adjacency_from_matrix(grid8)
        nested_dissection(g)  # validates as Permutation internally

    def test_separator_numbered_last(self):
        a = grid2d_laplacian(8)
        g = adjacency_from_matrix(a)
        p = nested_dissection(g, leaf_size=4)
        # The last-numbered vertices must form a valid separator of the grid:
        # removing them disconnects the graph into >= 2 components.
        from repro.graph.traversal import connected_components

        sep_size = 8  # top-level separator of an 8x8 grid has ~8 vertices
        keep = np.sort(p.perm[: a.n - sep_size])
        sub, _ = subgraph(g, keep)
        labels = connected_components(sub)
        assert labels.max() >= 1

    def test_fill_beats_natural_on_large_grid(self):
        a = grid2d_laplacian(14)
        fill_nd = analyze(a, method="nested_dissection").factor_nnz
        fill_nat = analyze(a, method="natural").factor_nnz
        assert fill_nd < fill_nat

    def test_max_depth_limits_recursion(self, grid8):
        g = adjacency_from_matrix(grid8)
        p = nested_dissection(g, max_depth=1)
        assert p.n == 64
        # Depth 0 stops at once: minimum degree orders the whole graph.
        np.testing.assert_array_equal(
            nested_dissection(g, max_depth=0).perm, minimum_degree(g).perm
        )
        assert not np.array_equal(p.perm, minimum_degree(g).perm)

    def test_leaf_size_hands_small_graphs_to_minimum_degree(self, grid8):
        g = adjacency_from_matrix(grid8)
        md = minimum_degree(g).perm
        np.testing.assert_array_equal(nested_dissection(g, leaf_size=g.n).perm, md)
        assert not np.array_equal(nested_dissection(g, leaf_size=g.n - 1).perm, md)

    def test_diagonal_matrix_needs_no_recursion_per_component(self):
        # Every vertex is its own component: 5,000 components, far more than
        # the interpreter's stack depth, so they must be ordered in a loop.
        n = 5000
        i = np.arange(n)
        p = nested_dissection(adjacency_from_matrix(from_triplets(n, i, i, np.full(n, 2.0))))
        np.testing.assert_array_equal(p.perm, i)

    def test_disjoint_blocks_are_ordered_block_by_block(self):
        nblocks = 2000
        base = 3 * np.arange(nblocks)
        rows = np.concatenate([base + r for r in (0, 1, 2, 1, 2, 2)])
        cols = np.concatenate([base + c for c in (0, 1, 2, 0, 0, 1)])
        vals = np.repeat([4.0, 4.0, 4.0, -1.0, -1.0, -1.0], nblocks)
        g = adjacency_from_matrix(from_triplets(3 * nblocks, rows, cols, vals))
        p = nested_dissection(g)
        # Components go in order of their lowest vertex; minimum degree
        # takes the last ones together once they fit a leaf.
        head = p.perm[: 3 * (nblocks - 2)]
        np.testing.assert_array_equal(head // 3, np.repeat(np.arange(nblocks - 2), 3))
        assert sorted(p.perm[head.size :]) == list(range(head.size, 3 * nblocks))

    def test_works_without_coords(self):
        a = random_spd(50, density=0.05, seed=11)
        g = adjacency_from_matrix(a)
        p = nested_dissection(g)
        assert p.n == 50


class TestRCM:
    def test_is_permutation(self, fe9):
        g = adjacency_from_matrix(fe9)
        reverse_cuthill_mckee(g)

    def test_reduces_bandwidth(self, grid8):
        g = adjacency_from_matrix(grid8)
        p = reverse_cuthill_mckee(g)
        a_perm = grid8.permuted(p.perm)

        def bandwidth(a):
            worst = 0
            for j in range(a.n):
                rows, _ = a.column(j)
                if rows.shape[0] > 1:
                    worst = max(worst, int(rows[-1]) - j)
            return worst

        # natural ordering of an 8x8 grid has bandwidth 8; RCM should not
        # be dramatically worse and usually matches it
        assert bandwidth(a_perm) <= bandwidth(grid8) + 1

    def test_handles_disconnected(self):
        from repro.sparse.build import from_triplets

        a = from_triplets(4, [1, 3], [0, 2], [-1.0, -1.0])
        g = adjacency_from_matrix(a)
        p = reverse_cuthill_mckee(g)
        assert p.n == 4


class TestOrderAPI:
    @pytest.mark.parametrize("method", ["nested_dissection", "minimum_degree", "rcm", "natural"])
    def test_all_methods_give_permutations(self, grid8, method):
        p = order(grid8, method)
        assert p.n == grid8.n

    def test_natural_is_identity(self, grid8):
        assert order(grid8, "natural") == Permutation.identity(grid8.n)

    def test_unknown_method(self, grid8):
        with pytest.raises(ValueError, match="unknown ordering"):
            order(grid8, "magic")

    @pytest.mark.parametrize("method", ["nested_dissection", "minimum_degree", "rcm", "natural"])
    def test_every_ordering_solves_correctly(self, grid8, method, rng):
        from repro.core.solver import ParallelSparseSolver

        solver = ParallelSparseSolver(grid8, p=1, ordering=method).prepare()
        b = rng.normal(size=grid8.n)
        x, rep = solver.solve(b)
        assert rep.residual < 1e-10


class TestEliminationTreeShape:
    """Nested dissection gives the almost balanced trees of the paper's
    Section 3.1; RCM gives long chains."""

    @staticmethod
    def _leaves(stree):
        return sum(1 for kids in stree.children if not kids)

    def test_nd_tree_is_bushy(self):
        stree = analyze(grid2d_laplacian(16)).stree
        assert self._leaves(stree) > stree.nsuper // 10

    def test_rcm_tree_is_chainlike(self):
        a = grid2d_laplacian(16)
        rcm = analyze(a, method="rcm").stree
        assert self._leaves(rcm) < self._leaves(analyze(a).stree) / 2

    def test_top_separator_order_sqrt_n(self):
        stree = analyze(grid2d_laplacian(20)).stree
        assert max(stree.supernodes[r].t for r in stree.roots()) <= 3 * 20
