"""Simulated parallel supernodal factorization (the paper's ref [4])."""

import numpy as np
import pytest

from repro.core.factor_model import parallel_factor_time, serial_factor_time
from repro.core.parallel_factor import build_factor_graph, simulated_factor_time
from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.sparse.generators import fe_mesh_2d, grid2d_laplacian


@pytest.fixture(scope="module")
def stree():
    a = grid2d_laplacian(14)
    base = ParallelSparseSolver(a, p=1).prepare()
    return base.symbolic.stree


class TestFactorGraph:
    def test_p1_matches_serial_model(self, stree):
        spec = cray_t3d()
        assign = subtree_to_subcube(stree, 1)
        tsim, _ = simulated_factor_time(spec, stree, assign, nproc=1)
        assert tsim == pytest.approx(serial_factor_time(spec, stree), rel=1e-9)

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_speedup_bounds(self, stree, p):
        spec = cray_t3d()
        ts = serial_factor_time(spec, stree)
        tsim, _ = simulated_factor_time(spec, stree, subtree_to_subcube(stree, p), nproc=p)
        assert tsim < ts  # parallel helps
        # p=1 graph charges cheaper monolithic per-supernode kernels than
        # the blocked parallel graph, so the speedup can't exceed p by much
        assert ts / tsim < p * 1.1

    def test_tracks_closed_form_model(self, stree):
        spec = cray_t3d()
        sims, mods = [], []
        for p in (2, 8, 32):
            assign = subtree_to_subcube(stree, p)
            tsim, _ = simulated_factor_time(spec, stree, assign, nproc=p)
            sims.append(tsim)
            mods.append(parallel_factor_time(spec, stree, assign))
        corr = np.corrcoef(np.log(sims), np.log(mods))[0, 1]
        assert corr > 0.9

    def test_graph_structure(self, stree):
        spec = cray_t3d()
        assign = subtree_to_subcube(stree, 4)
        g = build_factor_graph(stree, assign, spec, nproc=4)
        assert g.ntasks > stree.nsuper  # shared supernodes expand into blocks
        for e in g.edges:
            assert e.src < e.dst  # topological ids

    def test_ideal_machine_speedup_larger(self, stree):
        """Removing communication costs improves the parallel time."""
        assign = subtree_to_subcube(stree, 16)
        t_real, _ = simulated_factor_time(cray_t3d(), stree, assign, nproc=16)
        spec0 = cray_t3d().with_(t_s=0.0, t_w=0.0, t_h=0.0)
        t_free, _ = simulated_factor_time(spec0, stree, assign, nproc=16)
        assert t_free < t_real

    def test_assignment_size_checked(self, stree):
        with pytest.raises(ValueError):
            simulated_factor_time(cray_t3d(), stree, [], nproc=2)


class TestSolverIntegration:
    def test_simulation_agrees_roughly_with_the_reported_model(self):
        # The solver reports the closed-form model; the simulated task graph
        # over the same mapping stays within a small factor of it.
        a = fe_mesh_2d(16, seed=3)
        solver = ParallelSparseSolver(a, p=8).prepare()
        spec, stree, assign = solver.spec, solver.symbolic.stree, solver.assign
        model = solver.factorization_seconds()
        assert model == parallel_factor_time(spec, stree, assign, b=solver.b)
        simulated, _ = simulated_factor_time(spec, stree, assign, b=solver.b, nproc=8)
        assert 0.3 < simulated / model < 3.0

    def test_result_cached(self):
        a = grid2d_laplacian(8)
        solver = ParallelSparseSolver(a, p=4).prepare()
        t1 = solver.factorization_seconds()
        assert solver.factorization_seconds() == t1
