"""Edge cases and robustness across the whole pipeline."""

import warnings

import numpy as np
import pytest

from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.numeric.trisolve import as_rhs_matrix
from repro.serve import FakeClock, SolveService
from repro.sparse.build import from_dense, from_triplets
from repro.sparse.generators import grid2d_laplacian, random_spd
from repro.symbolic.analyze import analyze


class TestTinySystems:
    def test_one_by_one(self):
        a = from_dense(np.array([[4.0]]))
        solver = ParallelSparseSolver(a, p=1).prepare()
        x, rep = solver.solve(np.array([8.0]))
        assert x[0] == pytest.approx(2.0)
        assert rep.residual < 1e-15

    def test_one_by_one_many_procs(self):
        a = from_dense(np.array([[4.0]]))
        solver = ParallelSparseSolver(a, p=8).prepare()
        x, _ = solver.solve(np.array([8.0]))
        assert x[0] == pytest.approx(2.0)

    def test_two_by_two(self, rng):
        a = from_dense(np.array([[4.0, -1.0], [-1.0, 3.0]]))
        solver = ParallelSparseSolver(a, p=2).prepare()
        b = rng.normal(size=2)
        x, rep = solver.solve(b)
        np.testing.assert_allclose(a.to_dense() @ x, b, atol=1e-12)

    def test_diagonal_matrix_forest(self, rng):
        """A diagonal matrix has a forest of singleton roots."""
        a = from_dense(np.diag([2.0, 3.0, 4.0, 5.0]))
        solver = ParallelSparseSolver(a, p=4, ordering="natural").prepare()
        b = rng.normal(size=4)
        x, rep = solver.solve(b)
        np.testing.assert_allclose(x, b / np.array([2.0, 3.0, 4.0, 5.0]), atol=1e-14)

    def test_block_diagonal_disconnected(self, rng):
        """Two disconnected components: forest etree, parallel subtrees."""
        rows = [1, 3]
        cols = [0, 2]
        vals = [-1.0, -1.0]
        diag_r = [0, 1, 2, 3]
        a = from_triplets(
            4,
            np.array(rows + diag_r),
            np.array(cols + diag_r),
            np.array(vals + [3.0] * 4),
        )
        solver = ParallelSparseSolver(a, p=2).prepare()
        b = rng.normal(size=4)
        x, rep = solver.solve(b)
        assert rep.residual < 1e-12


class TestExtremeParameters:
    def test_block_size_larger_than_matrix(self, rng):
        a = grid2d_laplacian(5)
        solver = ParallelSparseSolver(a, p=4, b=1024).prepare()
        _, rep = solver.solve(rng.normal(size=a.n))
        assert rep.residual < 1e-10

    def test_block_size_one(self, rng):
        a = grid2d_laplacian(5)
        solver = ParallelSparseSolver(a, p=4, b=1).prepare()
        _, rep = solver.solve(rng.normal(size=a.n))
        assert rep.residual < 1e-10

    def test_more_procs_than_unknowns(self, rng):
        a = from_dense(np.diag([2.0] * 3) + 0.5 * (np.ones((3, 3)) - np.eye(3)))
        solver = ParallelSparseSolver(a, p=16).prepare()
        _, rep = solver.solve(rng.normal(size=3))
        assert rep.residual < 1e-12

    def test_wide_rhs_block(self, rng):
        a = grid2d_laplacian(5)
        solver = ParallelSparseSolver(a, p=2).prepare()
        b = rng.normal(size=(a.n, 64))
        x, rep = solver.solve(b)
        assert rep.residual < 1e-10
        assert x.shape == (a.n, 64)

    def test_nrhs_zero_columns_rejected(self):
        a = grid2d_laplacian(4)
        solver = ParallelSparseSolver(a, p=1).prepare()
        with pytest.raises(ValueError, match="at least one column"):
            solver.solve(np.zeros((a.n, 0)), check=False)

    def test_huge_relaxation(self, rng):
        a = grid2d_laplacian(6)
        solver = ParallelSparseSolver(a, p=2, relax=10_000).prepare()
        _, rep = solver.solve(rng.normal(size=a.n))
        assert rep.residual < 1e-10


class TestRightHandSideContract:
    """A right-hand side is outside input: rejected by type before any packing."""

    @pytest.fixture(scope="class")
    def solver(self):
        return ParallelSparseSolver(grid2d_laplacian(4), p=1).prepare()

    @pytest.mark.parametrize("backend", ["sim", "serial", "fused"])
    def test_solve_rejects_a_zero_dimensional_rhs(self, solver, backend):
        with pytest.raises(ValueError, match="bvec must be a vector or an"):
            solver.solve(np.float64(3.0), backend=backend)
        with pytest.raises(ValueError, match="bvec"):
            solver.solve(3.0, backend=backend)

    @pytest.mark.parametrize("backend", ["sim", "serial", "fused"])
    def test_solve_rejects_complex_input_instead_of_dropping_the_imaginary_part(
        self, solver, backend
    ):
        b = np.ones(solver.a.n) + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way either
            with pytest.raises(TypeError, match="bvec must be real, got complex dtype complex128"):
                solver.solve(b, backend=backend)
            with pytest.raises(TypeError, match="bvec must be real"):
                solver.solve([[1 + 2j]] * solver.a.n, backend=backend)

    @pytest.mark.parametrize("backend", ["sim", "serial", "fused"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_solve_rejects_non_finite_entries(self, solver, backend, bad):
        b = np.ones((solver.a.n, 3))
        b[5, 2] = bad
        message = r"bvec must be finite, got -?(nan|inf) at index \(5, 2\)"
        with pytest.raises(ValueError, match=message):
            solver.solve(b, backend=backend)
        with pytest.raises(ValueError, match="bvec must be finite"):
            solver.solve(b[:, 2], backend=backend)

    def test_as_rhs_matrix_names_the_argument(self):
        with pytest.raises(ValueError, match="b must be a vector or an"):
            as_rhs_matrix(np.array(1.0), 4)
        with pytest.raises(TypeError, match="b must be real"):
            as_rhs_matrix(np.zeros(4, dtype=np.complex64), 4)
        # what was accepted stays accepted, as a fresh float64 block
        block, squeeze = as_rhs_matrix(np.arange(4, dtype=np.float32), 4)
        assert squeeze and block.dtype == np.float64 and block.shape == (4, 1)
        ints, squeeze = as_rhs_matrix([[1, 2], [3, 4]], 2)
        assert not squeeze and ints.dtype == np.float64 and ints.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_submit_rejects_before_anything_is_queued(self, solver):
        with SolveService(clock=FakeClock()) as service:
            service.register("default", solver)
            with pytest.raises(ValueError, match="b must be a vector or an"):
                service.submit(np.float64(1.0))
            with pytest.raises(TypeError, match="b must be real"):
                service.submit(np.ones(solver.a.n, dtype=np.complex128))
            for bad in (np.nan, np.inf):
                b = np.ones(solver.a.n)
                b[3] = bad
                message = r"b must be finite, got -?(nan|inf) at index \(3,\)"
                with pytest.raises(ValueError, match=message):
                    service.submit(b)
            assert service.report().submitted == 0
            good = service.submit(np.ones(solver.a.n))
            service.drain()
            assert np.all(np.isfinite(good.result(timeout=5)))


class TestNumericalEdges:
    def test_nearly_singular_still_solves(self, rng):
        d = np.diag([1.0, 1.0, 1e-12])
        a = from_dense(d)
        solver = ParallelSparseSolver(a, p=1, ordering="natural").prepare()
        b = np.array([1.0, 1.0, 1e-12])
        x, rep = solver.solve(b)
        np.testing.assert_allclose(x, [1.0, 1.0, 1.0], rtol=1e-6)

    def test_large_value_spread(self, rng):
        scales = np.array([1e-6, 1.0, 1e6, 1.0, 1e-6, 1.0])
        base = grid2d_laplacian(6).to_dense()[:6, :6]
        m = np.diag(scales) @ (base + 6 * np.eye(6)) @ np.diag(scales)
        a = from_dense(m)
        solver = ParallelSparseSolver(a, p=2).prepare()
        b = rng.normal(size=6)
        x, rep = solver.solve(b)
        # the 1e12 diagonal spread makes the system extremely
        # ill-conditioned; the ||r||/||b|| metric degrades accordingly
        assert rep.residual < 1e-4
        _, rep2 = solver.solve(b, refine=2)
        assert rep2.residual <= rep.residual

    def test_rhs_of_zeros(self):
        a = grid2d_laplacian(6)
        solver = ParallelSparseSolver(a, p=4).prepare()
        x, _ = solver.solve(np.zeros(a.n), check=False)
        np.testing.assert_allclose(x, 0.0)


class TestAnalyzeEdges:
    def test_analyze_singleton(self):
        sym = analyze(from_dense(np.array([[2.0]])))
        assert sym.stree.nsuper == 1
        assert sym.factor_nnz == 1

    def test_dense_matrix_one_supernode(self, rng):
        m = rng.normal(size=(7, 7))
        a = from_dense(m @ m.T + 7 * np.eye(7))
        sym = analyze(a)
        assert sym.stree.nsuper == 1
        assert sym.stree.supernodes[0].t == 7

    def test_random_matrix_full_pipeline(self, rng):
        a = random_spd(64, density=0.08, seed=42)
        for p in (1, 8):
            solver = ParallelSparseSolver(a, p=p, spec=cray_t3d()).prepare()
            _, rep = solver.solve(rng.normal(size=a.n))
            assert rep.residual < 1e-9
