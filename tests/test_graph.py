import numpy as np
import pytest

from repro.graph.separators import (
    Separation,
    find_separator,
    geometric_bisection,
    levelset_separator,
)
from repro.graph.structure import Adjacency, adjacency_from_matrix
from repro.graph.traversal import bfs_levels, connected_components, pseudo_peripheral
from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian, random_spd
from tests._oracles import is_valid_separation


@pytest.fixture(scope="module")
def path_graph():
    # 0 - 1 - 2 - 3 - 4
    indptr = np.array([0, 1, 3, 5, 7, 8])
    indices = np.array([1, 0, 2, 1, 3, 2, 4, 3])
    return Adjacency(5, indptr, indices)


class TestAdjacency:
    def test_from_matrix_degrees(self, grid8):
        g = adjacency_from_matrix(grid8)
        assert g.n == 64
        assert g.indices.size == 2 * (2 * 8 * 7)  # horizontal + vertical edges, both ways

    def test_no_self_loops(self, grid8):
        g = adjacency_from_matrix(grid8)
        for v in range(g.n):
            assert v not in g.neighbors(v)

    def test_symmetry(self, fe9):
        g = adjacency_from_matrix(fe9)
        for v in range(g.n):
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_subgraph_induced_edges(self, path_graph):
        sub, mapping = path_graph.subgraph(np.array([0, 1, 3]))
        assert sub.n == 3
        # only edge 0-1 survives (1-3 not adjacent)
        assert sub.degree(0) == 1 and sub.degree(1) == 1 and sub.degree(2) == 0
        np.testing.assert_array_equal(mapping, [0, 1, 3])

    def test_subgraph_carries_coords(self):
        a = grid2d_laplacian(3)
        g = adjacency_from_matrix(a)
        sub, mapping = g.subgraph(np.array([0, 4, 8]))
        np.testing.assert_allclose(sub.coords, g.coords[mapping])


class TestBFS:
    def test_levels_on_path(self, path_graph):
        np.testing.assert_array_equal(bfs_levels(path_graph, 0), [0, 1, 2, 3, 4])

    def test_levels_from_middle(self, path_graph):
        np.testing.assert_array_equal(bfs_levels(path_graph, 2), [2, 1, 0, 1, 2])

    def test_unreachable_marked(self):
        g = Adjacency(3, np.array([0, 1, 2, 2]), np.array([1, 0]))
        levels = bfs_levels(g, 0)
        assert levels[2] == -1


class TestPseudoPeripheral:
    def test_path_endpoint(self, path_graph):
        v = pseudo_peripheral(path_graph, start=2)
        assert v in (0, 4)

    def test_grid_corner_distance(self):
        g = adjacency_from_matrix(grid2d_laplacian(7))
        v = pseudo_peripheral(g)
        lev = bfs_levels(g, v)
        # eccentricity of a pseudo-peripheral vertex in a 7x7 grid is 12
        assert lev.max() == 12


class TestComponents:
    def test_single_component(self, grid8):
        g = adjacency_from_matrix(grid8)
        assert connected_components(g).max() == 0

    def test_two_components(self):
        g = Adjacency(4, np.array([0, 1, 2, 3, 4]), np.array([1, 0, 3, 2]))
        labels = connected_components(g)
        assert labels[0] == labels[1] != labels[2] == labels[3]


class TestSeparators:
    @pytest.mark.parametrize("k", [4, 7, 10])
    def test_geometric_separates_grid(self, k):
        g = adjacency_from_matrix(grid2d_laplacian(k))
        sep = geometric_bisection(g)
        assert is_valid_separation(g, sep)
        assert sep.left.size > 0 and sep.right.size > 0

    def test_geometric_separator_size_sqrt(self):
        k = 16
        g = adjacency_from_matrix(grid2d_laplacian(k))
        sep = geometric_bisection(g)
        assert sep.separator.size <= 2 * k  # O(sqrt N) with a small constant

    def test_geometric_needs_coords(self):
        g = adjacency_from_matrix(random_spd(20, seed=1))
        with pytest.raises(ValueError, match="coordinates"):
            geometric_bisection(g)

    def test_levelset_separates(self):
        g = adjacency_from_matrix(random_spd(60, density=0.04, seed=2))
        sep = levelset_separator(g)
        assert is_valid_separation(g, sep)

    def test_levelset_balance(self):
        g = adjacency_from_matrix(grid2d_laplacian(9))
        sep = levelset_separator(g)
        assert is_valid_separation(g, sep)
        big, small = max(sep.left.size, sep.right.size), min(sep.left.size, sep.right.size)
        assert small >= big // 4  # reasonably balanced

    def test_find_dispatches_on_coords(self):
        g_geo = adjacency_from_matrix(grid3d_laplacian(4))
        g_alg = adjacency_from_matrix(random_spd(30, seed=5))
        assert is_valid_separation(g_geo, find_separator(g_geo))
        assert is_valid_separation(g_alg, find_separator(g_alg))

    def test_separation_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Separation(np.array([0, 1]), np.array([1]), np.array([2]))

    def test_singleton_graph(self):
        g = Adjacency(1, np.array([0, 0]), np.array([], dtype=np.int64))
        sep = levelset_separator(g)
        assert sep.separator.size == 1
