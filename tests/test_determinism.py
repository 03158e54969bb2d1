"""Determinism: every simulated quantity is a pure function of its inputs.

Reproducibility is a headline property of a simulation-based study; these
tests re-run each pipeline stage twice and require bit-identical outputs.
"""

import numpy as np

from repro.core.forward import parallel_forward
from repro.core.solver import ParallelSparseSolver
from repro.core.spmd_forward import spmd_forward
from repro.machine.events import TaskGraph, simulate
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.symbolic.analyze import analyze
from repro.sparse.generators import fe_mesh_2d


class TestDeterminism:
    def test_analyze_deterministic(self):
        a = fe_mesh_2d(10, seed=3)
        s1, s2 = analyze(a), analyze(a)
        np.testing.assert_array_equal(s1.perm.perm, s2.perm.perm)
        np.testing.assert_array_equal(s1.l_indices, s2.l_indices)
        assert s1.partition.nsuper == s2.partition.nsuper

    def test_simulation_deterministic(self):
        rng = np.random.default_rng(4)
        spec = MachineSpec(t_flop=1e-6, t_s=1e-5, t_w=1e-6, topology="full")

        def build():
            g = TaskGraph(nproc=4)
            for k in range(50):
                g.add_task(int(rng_local.integers(4)), float(rng_local.uniform(0, 1)), priority=(k,))
            for dst in range(1, 50):
                src = int(rng_local.integers(0, dst))
                g.add_edge(src, dst, words=10)
            return g

        rng_local = np.random.default_rng(4)
        r1 = simulate(build(), spec)
        rng_local = np.random.default_rng(4)
        r2 = simulate(build(), spec)
        assert r1.makespan == r2.makespan
        assert r1.start == r2.start
        assert r1.finish == r2.finish

    def test_parallel_solve_bitwise_repeatable(self, prepared_grid12, rng):
        b = rng.normal(size=(prepared_grid12.a.n, 2))
        x1, rep1 = prepared_grid12.solve(b, check=False)
        x2, rep2 = prepared_grid12.solve(b, check=False)
        np.testing.assert_array_equal(x1, x2)
        assert rep1.fbsolve_seconds == rep2.fbsolve_seconds

    def test_forward_timing_repeatable(self, prepared_grid12, rng):
        base = prepared_grid12
        assign = subtree_to_subcube(base.symbolic.stree, 8)
        bp = base.symbolic.perm.apply_to_vector(rng.normal(size=(base.a.n, 1)))
        _, s1 = parallel_forward(base.factor, assign, cray_t3d(), bp, nproc=8)
        _, s2 = parallel_forward(base.factor, assign, cray_t3d(), bp, nproc=8)
        assert s1.makespan == s2.makespan
        assert s1.message_count == s2.message_count

    def test_spmd_timing_repeatable(self, prepared_grid12, rng):
        base = prepared_grid12
        assign = subtree_to_subcube(base.symbolic.stree, 4)
        bp = base.symbolic.perm.apply_to_vector(rng.normal(size=(base.a.n, 1)))
        _, r1 = spmd_forward(base.factor, assign, cray_t3d(), bp, nproc=4)
        _, r2 = spmd_forward(base.factor, assign, cray_t3d(), bp, nproc=4)
        assert r1.makespan == r2.makespan
        assert r1.finish_times == r2.finish_times

    def test_factorization_deterministic(self):
        a = fe_mesh_2d(9, seed=5)
        f1 = ParallelSparseSolver(a, p=1).prepare().factor
        f2 = ParallelSparseSolver(a, p=1).prepare().factor
        for b1, b2 in zip(f1.blocks, f2.blocks):
            np.testing.assert_array_equal(b1, b2)
