import numpy as np
import pytest

from repro.graph.structure import adjacency_from_matrix
from repro.graph.traversal import connected_components
from repro.sparse.generators import (
    fe_mesh_2d,
    fe_mesh_3d,
    grid2d_laplacian,
    grid3d_laplacian,
    model_problem,
    random_spd,
)


def is_spd(a):
    eig = np.linalg.eigvalsh(a.to_dense())
    return eig.min() > 0


class TestGrid2D:
    def test_size(self):
        assert grid2d_laplacian(5).n == 25

    def test_spd(self):
        assert is_spd(grid2d_laplacian(6))

    def test_stencil_degree(self):
        a = grid2d_laplacian(4)
        g = adjacency_from_matrix(a)
        degrees = [g.degree(v) for v in range(a.n)]
        assert max(degrees) == 4  # interior of the 5-point stencil
        assert min(degrees) == 2  # corners

    def test_has_coordinates(self):
        a = grid2d_laplacian(4)
        assert a.coords is not None and a.coords.shape == (16, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            grid2d_laplacian(0)


class TestGrid3D:
    def test_size(self):
        assert grid3d_laplacian(3).n == 27

    def test_spd(self):
        assert is_spd(grid3d_laplacian(3))

    def test_stencil_degree(self):
        a = grid3d_laplacian(3)
        g = adjacency_from_matrix(a)
        assert max(g.degree(v) for v in range(a.n)) == 6

    def test_coordinates_3d(self):
        assert grid3d_laplacian(3).coords.shape == (27, 3)


class TestFEMeshes:
    def test_fe2d_spd_and_denser_than_grid(self):
        a = fe_mesh_2d(6, seed=1)
        assert is_spd(a)
        assert a.nnz > grid2d_laplacian(6).nnz

    def test_fe3d_spd(self):
        assert is_spd(fe_mesh_3d(3, seed=1))

    def test_deterministic_given_seed(self):
        a = fe_mesh_2d(5, seed=42)
        b = fe_mesh_2d(5, seed=42)
        np.testing.assert_allclose(a.to_dense(), b.to_dense())

    def test_different_seeds_differ(self):
        a = fe_mesh_2d(5, seed=1)
        b = fe_mesh_2d(5, seed=2)
        assert not np.allclose(a.to_dense(), b.to_dense())

    def test_jittered_coords_present(self):
        a = fe_mesh_2d(5, seed=1)
        assert a.coords is not None
        # jitter keeps points near the lattice
        assert np.abs(a.coords - np.round(a.coords)).max() <= 0.25 + 1e-12


class TestRandomSPD:
    def test_spd(self):
        assert is_spd(random_spd(40, density=0.1, seed=0))

    def test_connected(self):
        a = random_spd(50, density=0.02, seed=3)
        labels = connected_components(adjacency_from_matrix(a))
        assert labels.max() == 0

    def test_no_coords(self):
        assert random_spd(20, seed=0).coords is None

    def test_density_controls_fill(self):
        sparse, dense = (random_spd(60, density=d, seed=1) for d in (0.05, 0.5))
        assert dense.nnz_lower > 3 * sparse.nnz_lower

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_spd(10, density=0.0)
        with pytest.raises(ValueError):
            random_spd(10, density=1.5)


class TestModelProblem:
    @pytest.mark.parametrize(
        "name,size,expected_n",
        [("grid2d", 4, 16), ("grid3d", 3, 27), ("fe2d", 4, 16), ("fe3d", 3, 27), ("random", 30, 30)],
    )
    def test_dispatch(self, name, size, expected_n):
        assert model_problem(name, size).n == expected_n

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model problem"):
            model_problem("nope", 4)
