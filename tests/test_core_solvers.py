"""Correctness and scaling behaviour of the parallel triangular solvers."""

import numpy as np
import pytest

from repro.core.backward import parallel_backward
from repro.core.blocks import SupernodeBlocks
from repro.core.forward import parallel_forward
from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import ProcSet, subtree_to_subcube
from repro.numeric.trisolve import backward_supernodal, forward_supernodal
from repro.sparse.generators import fe_mesh_2d, grid2d_laplacian, grid3d_laplacian, random_spd
from tests.conftest import clone_for_p


class TestSupernodeBlocks:
    def test_triangle_alignment(self):
        blocks = SupernodeBlocks(n=13, t=6, b=4, procs=ProcSet(0, 2))
        assert blocks.n_tri_blocks == 2
        assert blocks.bounds(0) == (0, 4)
        assert blocks.bounds(1) == (4, 6)  # short: stops at the triangle edge
        assert blocks.bounds(2) == (6, 10)  # below region restarts at t
        assert blocks.bounds(3) == (10, 13)

    def test_owners_cyclic_with_offset(self):
        blocks = SupernodeBlocks(n=16, t=8, b=4, procs=ProcSet(4, 4))
        assert [blocks.owner(k) for k in range(4)] == [4, 5, 6, 7]

    def test_blocks_of_inverse(self):
        blocks = SupernodeBlocks(n=20, t=8, b=4, procs=ProcSet(0, 4))
        seen = sorted(k for r in range(4) for k in blocks.blocks_of(r))
        assert seen == list(range(blocks.nblocks))

    def test_ring_arithmetic(self):
        blocks = SupernodeBlocks(n=8, t=8, b=2, procs=ProcSet(8, 4))
        assert blocks.ring_rank(8, 1) == 9
        assert blocks.ring_rank(11, 1) == 8  # wraps inside the proc set
        assert blocks.ring_distance(11, 8) == 1

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            SupernodeBlocks(n=4, t=5, b=2, procs=ProcSet(0, 1))


@pytest.fixture(scope="module")
def fwd_fixture():
    a = grid2d_laplacian(11)
    base = ParallelSparseSolver(a, p=1, spec=cray_t3d()).prepare()
    rng = np.random.default_rng(7)
    b = rng.normal(size=(a.n, 3))
    bp = base.symbolic.perm.apply_to_vector(b)
    y_ref = forward_supernodal(base.factor, bp)
    x_ref = backward_supernodal(base.factor, y_ref)
    return base, bp, y_ref, x_ref


class TestParallelForwardCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_matches_serial(self, fwd_fixture, p):
        base, bp, y_ref, _ = fwd_fixture
        assign = subtree_to_subcube(base.symbolic.stree, p)
        y, _ = parallel_forward(base.factor, assign, cray_t3d(), bp, b=4, nproc=p)
        np.testing.assert_allclose(y, y_ref, atol=1e-11)

    @pytest.mark.parametrize("b", [1, 2, 3, 8, 64])
    def test_block_size_does_not_change_answer(self, fwd_fixture, b):
        base, bp, y_ref, _ = fwd_fixture
        assign = subtree_to_subcube(base.symbolic.stree, 8)
        y, _ = parallel_forward(base.factor, assign, cray_t3d(), bp, b=b, nproc=8)
        np.testing.assert_allclose(y, y_ref, atol=1e-11)

    @pytest.mark.parametrize("variant", ["column", "row"])
    def test_variants_agree(self, fwd_fixture, variant):
        base, bp, y_ref, _ = fwd_fixture
        assign = subtree_to_subcube(base.symbolic.stree, 4)
        y, _ = parallel_forward(
            base.factor, assign, cray_t3d(), bp, b=4, variant=variant, nproc=4
        )
        np.testing.assert_allclose(y, y_ref, atol=1e-11)

    def test_single_rhs_vector_shape(self, fwd_fixture):
        base, bp, y_ref, _ = fwd_fixture
        assign = subtree_to_subcube(base.symbolic.stree, 4)
        y, _ = parallel_forward(base.factor, assign, cray_t3d(), bp[:, 0], nproc=4)
        assert y.ndim == 1
        np.testing.assert_allclose(y, y_ref[:, 0], atol=1e-11)

    def test_unknown_variant_rejected(self, fwd_fixture):
        base, bp, _, _ = fwd_fixture
        assign = subtree_to_subcube(base.symbolic.stree, 4)
        with pytest.raises(ValueError):
            parallel_forward(base.factor, assign, cray_t3d(), bp, variant="spiral", nproc=4)


class TestParallelBackwardCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_matches_serial(self, fwd_fixture, p):
        base, _, y_ref, x_ref = fwd_fixture
        assign = subtree_to_subcube(base.symbolic.stree, p)
        x, _ = parallel_backward(base.factor, assign, cray_t3d(), y_ref, b=4, nproc=p)
        np.testing.assert_allclose(x, x_ref, atol=1e-11)

    @pytest.mark.parametrize("b", [1, 2, 3, 8, 64])
    def test_block_size_invariant(self, fwd_fixture, b):
        base, _, y_ref, x_ref = fwd_fixture
        assign = subtree_to_subcube(base.symbolic.stree, 8)
        x, _ = parallel_backward(base.factor, assign, cray_t3d(), y_ref, b=b, nproc=8)
        np.testing.assert_allclose(x, x_ref, atol=1e-11)


class TestSimulatedScaling:
    def test_speedup_monotone_in_ideal_machine(self):
        """With zero-cost communication, adding processors cannot slow the
        solve (up to scheduling ties)."""
        a = grid2d_laplacian(16)
        spec = cray_t3d().with_(t_s=0.0, t_w=0.0, t_h=0.0, t_call=0.0)
        base = ParallelSparseSolver(a, p=1, spec=spec).prepare()
        b = np.ones(a.n)
        times = []
        for p in (1, 4, 16):
            solver = clone_for_p(base, p, spec=spec)
            _, rep = solver.solve(b, check=False)
            times.append(rep.fbsolve_seconds)
        assert times[1] < times[0]
        assert times[2] <= times[1] * 1.05

    def test_speedup_on_t3d_preset(self, prepared_grid12):
        b = np.ones(prepared_grid12.a.n)
        _, rep1 = prepared_grid12.solve(b, check=False)
        s4 = clone_for_p(prepared_grid12, 4)
        _, rep4 = s4.solve(b, check=False)
        assert rep4.fbsolve_seconds < rep1.fbsolve_seconds

    def test_multiple_rhs_boosts_mflops(self, prepared_grid12, rng):
        """Paper Figure 8: higher NRHS gives strictly better MFLOPS."""
        b30 = rng.normal(size=(prepared_grid12.a.n, 30))
        _, rep1 = prepared_grid12.solve(b30[:, :1], check=False)
        _, rep30 = prepared_grid12.solve(b30, check=False)
        assert rep30.fbsolve_mflops > 2 * rep1.fbsolve_mflops

    def test_messages_only_between_assigned_procs(self, fwd_fixture):
        base, bp, _, _ = fwd_fixture
        p = 8
        assign = subtree_to_subcube(base.symbolic.stree, p)
        _, sim = parallel_forward(base.factor, assign, cray_t3d(), bp, nproc=p)
        for msg in sim.messages:
            assert 0 <= msg.src_proc < p and 0 <= msg.dst_proc < p
            assert msg.src_proc != msg.dst_proc

    def test_forward_comm_volume_grows_with_p(self, fwd_fixture):
        base, bp, _, _ = fwd_fixture
        vols = []
        for p in (2, 8):
            assign = subtree_to_subcube(base.symbolic.stree, p)
            _, sim = parallel_forward(base.factor, assign, cray_t3d(), bp, nproc=p)
            vols.append(sim.comm_volume_words)
        assert vols[1] > vols[0]


class TestEndToEndSolver:
    @pytest.mark.parametrize(
        "matrix_fn,p",
        [
            (lambda: grid2d_laplacian(10), 4),
            (lambda: grid3d_laplacian(5), 8),
            (lambda: fe_mesh_2d(8, seed=2), 4),
            (lambda: random_spd(80, density=0.04, seed=4), 8),
        ],
    )
    def test_residual_small(self, matrix_fn, p, rng):
        a = matrix_fn()
        solver = ParallelSparseSolver(a, p=p).prepare()
        b = rng.normal(size=(a.n, 2))
        x, rep = solver.solve(b)
        assert rep.residual < 1e-10

    def test_prepare_records_its_stage_seconds(self):
        solver = ParallelSparseSolver(grid2d_laplacian(6))
        assert solver.setup_seconds is None
        seconds = solver.prepare().setup_seconds
        assert list(seconds) == ["analyze", "cholesky", "mapping", "verify"]
        assert all(value >= 0.0 for value in seconds.values())

    def test_solution_matches_scipy(self, prepared_grid12, rng):
        from scipy.sparse.linalg import spsolve

        b = rng.normal(size=prepared_grid12.a.n)
        x, _ = prepared_grid12.solve(b)
        xs = spsolve(prepared_grid12.a.to_scipy().tocsc(), b)
        np.testing.assert_allclose(x, xs, atol=1e-9)

    def test_report_fields_consistent(self, prepared_grid12):
        b = np.ones((prepared_grid12.a.n, 2))
        _, rep = prepared_grid12.solve(b, check=False)
        assert rep.nrhs == 2
        assert rep.fbsolve_seconds == rep.forward.seconds + rep.backward.seconds
        assert rep.forward.flops == rep.backward.flops
        assert rep.factor_seconds > 0 and rep.factor_flops > 0
        assert rep.fbsolve_mflops > 0

    def test_solve_before_prepare_rejected(self):
        a = grid2d_laplacian(5)
        solver = ParallelSparseSolver(a, p=1)
        with pytest.raises(ValueError, match="prepare"):
            solver.solve(np.ones(a.n))

    def test_non_power_of_two_p_rejected(self):
        with pytest.raises(ValueError):
            ParallelSparseSolver(grid2d_laplacian(4), p=3)

    def test_rhs_size_mismatch(self, prepared_grid12):
        with pytest.raises(ValueError, match="mismatch"):
            prepared_grid12.solve(np.ones(7))

    def test_relaxed_supernodes_end_to_end(self, rng):
        a = grid2d_laplacian(9)
        solver = ParallelSparseSolver(a, p=4, relax=4).prepare()
        b = rng.normal(size=a.n)
        _, rep = solver.solve(b)
        assert rep.residual < 1e-10

    def test_row_priority_end_to_end(self, rng):
        a = grid2d_laplacian(9)
        solver = ParallelSparseSolver(a, p=4, variant="row").prepare()
        b = rng.normal(size=a.n)
        _, rep = solver.solve(b)
        assert rep.residual < 1e-10


class TestSimulatorKnobEffects:
    """``variant`` and ``b`` shape only the simulated schedule; each must move it."""

    @staticmethod
    def _report(a, **knobs):
        return ParallelSparseSolver(a, **knobs).prepare().solve(np.ones(a.n))[1]

    def test_variant_changes_the_forward_makespan(self):
        a = grid3d_laplacian(8)
        row = self._report(a, p=2, variant="row")
        column = self._report(a, p=2, variant="column")
        assert row.forward.seconds != column.forward.seconds
        assert row.backward.seconds == column.backward.seconds  # forward-only knob

    def test_block_size_changes_both_makespans(self):
        a = grid2d_laplacian(16)
        small = self._report(a, p=4, b=2)
        large = self._report(a, p=4, b=8)
        assert small.forward.seconds != large.forward.seconds
        assert small.backward.seconds != large.backward.seconds


class TestFactorModel:
    def test_serial_equals_parallel_at_p1(self, prepared_grid12):
        from repro.core.factor_model import parallel_factor_time, serial_factor_time

        stree = prepared_grid12.symbolic.stree
        assign = subtree_to_subcube(stree, 1)
        ts = serial_factor_time(cray_t3d(), stree)
        tp = parallel_factor_time(cray_t3d(), stree, assign)
        assert tp == pytest.approx(ts, rel=1e-9)

    def test_parallel_factor_speeds_up(self, prepared_grid12):
        from repro.core.factor_model import parallel_factor_time, serial_factor_time

        stree = prepared_grid12.symbolic.stree
        ts = serial_factor_time(cray_t3d(), stree)
        tp = parallel_factor_time(cray_t3d(), stree, subtree_to_subcube(stree, 16))
        assert tp < ts
        assert tp > ts / 16  # cannot be superlinear

    def test_factor_dominates_solve(self):
        """Paper headline: even in parallel, factorization time exceeds one
        triangular solve.  Needs a matrix with realistic fill (the flop
        ratio factor/solve grows with N; tiny grids are solve-dominated)."""
        a = fe_mesh_2d(30, seed=6)
        base = ParallelSparseSolver(a, p=1, spec=cray_t3d()).prepare()
        b = np.ones(a.n)
        for p in (1, 8):
            solver = clone_for_p(base, p)
            _, rep = solver.solve(b, check=False)
            assert rep.factor_seconds > rep.fbsolve_seconds
