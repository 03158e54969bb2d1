import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.graph.structure import adjacency_from_matrix
from repro.ordering.amd import approximate_minimum_degree
from repro.ordering.api import order
from repro.sparse.generators import grid2d_laplacian, random_spd
from repro.symbolic.analyze import analyze
from tests.test_properties import sparse_spd


class TestAMD:
    def test_is_permutation(self, grid8):
        g = adjacency_from_matrix(grid8)
        p = approximate_minimum_degree(g)
        assert np.array_equal(np.sort(p.perm), np.arange(grid8.n))

    def test_fill_close_to_exact_md(self, grid8):
        amd_fill = analyze(grid8, method="amd").factor_nnz
        md_fill = analyze(grid8, method="minimum_degree").factor_nnz
        assert amd_fill <= md_fill * 1.25  # approximation within 25%

    def test_fill_beats_natural(self):
        a = grid2d_laplacian(12)
        assert analyze(a, method="amd").factor_nnz < analyze(a, method="natural").factor_nnz

    def test_deterministic(self):
        a = random_spd(80, density=0.05, seed=4)
        g = adjacency_from_matrix(a)
        p1 = approximate_minimum_degree(g)
        p2 = approximate_minimum_degree(g)
        assert p1 == p2

    def test_api_dispatch(self, grid8):
        assert order(grid8, "amd").n == grid8.n

    def test_solve_end_to_end(self, grid8, rng):
        from repro.core.solver import ParallelSparseSolver

        solver = ParallelSparseSolver(grid8, p=4, ordering="amd").prepare()
        _, rep = solver.solve(rng.normal(size=grid8.n))
        assert rep.residual < 1e-10

    def test_element_absorption_path(self):
        """A path graph forces chained element absorptions; the ordering
        must stay valid and fill-free (path fill is zero under MD)."""
        from repro.sparse.build import from_triplets

        n = 20
        rows = np.arange(1, n)
        cols = np.arange(0, n - 1)
        vals = -np.ones(n - 1)
        diag_rows = np.arange(n)
        a = from_triplets(
            n,
            np.concatenate([rows, diag_rows]),
            np.concatenate([cols, diag_rows]),
            np.concatenate([vals, np.full(n, 3.0)]),
        )
        fill = analyze(a, method="amd").factor_nnz
        assert fill == 2 * n - 1  # diag + one subdiagonal entry per column


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=sparse_spd(max_n=25))
def test_amd_always_valid_permutation(a):
    g = adjacency_from_matrix(a)
    p = approximate_minimum_degree(g)
    assert np.array_equal(np.sort(p.perm), np.arange(a.n))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=sparse_spd(max_n=20))
def test_amd_degree_is_upper_bound(a):
    """AMD's approximate degrees must never make the ordering produce more
    fill than ~2x exact minimum degree on small graphs."""
    amd_fill = analyze(a, method="amd").factor_nnz
    md_fill = analyze(a, method="minimum_degree").factor_nnz
    assert amd_fill <= 2 * md_fill
