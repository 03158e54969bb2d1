import numpy as np
import pytest

from repro.machine.collectives import (
    all_to_all_personalized_time,
    broadcast_time,
    reduce_time,
)
from repro.machine.events import TaskGraph, simulate
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.machine.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    Mesh3D,
    make_topology,
)
from tests._oracles import critical_path


def diameter(topo) -> int:
    return max(topo.hops(0, d) for d in range(topo.p))


class TestMachineSpec:
    def test_flop_efficiency_limits(self):
        spec = MachineSpec(blas3_factor=0.25)
        assert spec.flop_efficiency(1) == 1.0
        assert spec.flop_efficiency(10**9) == pytest.approx(0.25, rel=1e-6)

    def test_compute_time_components(self):
        spec = MachineSpec(t_flop=1e-6, t_call=1e-3, blas3_factor=1.0)
        assert spec.compute_time(1000, calls=2) == pytest.approx(2e-3 + 1e-3)

    def test_message_time_linear(self):
        spec = MachineSpec(t_s=1e-5, t_w=1e-6, t_h=1e-7)
        assert spec.message_time(100, hops=3) == pytest.approx(1e-5 + 1e-4 + 3e-7)

    def test_zero_words_free(self):
        assert MachineSpec().message_time(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(t_flop=0)
        with pytest.raises(ValueError):
            MachineSpec(blas3_factor=0.0)
        with pytest.raises(ValueError):
            MachineSpec(t_s=-1)

    def test_with_override(self):
        spec = cray_t3d().with_(t_s=0.0)
        assert spec.t_s == 0.0
        assert spec.t_flop == cray_t3d().t_flop

    def test_mflops(self):
        assert MachineSpec().mflops(2e6, 1.0) == 2.0

    def test_presets_construct(self):
        cray_t3d()


class TestTopologies:
    def test_hypercube_hops_hamming(self):
        h = Hypercube(8)
        assert h.hops(0, 7) == 3
        assert h.hops(5, 5) == 0
        assert h.hops(0b001, 0b011) == 1

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ValueError):
            Hypercube(6)

    def test_hypercube_neighbors(self):
        assert sorted(Hypercube(8).neighbors(0)) == [1, 2, 4]

    def test_hypercube_diameter(self):
        assert diameter(Hypercube(16)) == 4

    def test_fully_connected(self):
        f = FullyConnected(5)
        assert f.hops(0, 4) == 1
        assert f.hops(2, 2) == 0
        assert diameter(f) == 1

    def test_mesh2d_manhattan(self):
        m = Mesh2D(16)  # 4x4
        assert m.hops(0, 15) == 6
        assert m.hops(0, 1) == 1

    def test_mesh3d_wraparound(self):
        m = Mesh3D(8)  # 2x2x2
        assert diameter(m) <= 3

    def test_make_topology_dispatch(self):
        assert isinstance(make_topology("hypercube", 4), Hypercube)
        assert isinstance(make_topology("mesh2d", 6), Mesh2D)
        assert isinstance(make_topology("mesh3d", 8), Mesh3D)
        assert isinstance(make_topology("full", 3), FullyConnected)
        with pytest.raises(ValueError):
            make_topology("torus9d", 4)

    def test_symmetry_property(self):
        for topo in (Hypercube(16), Mesh2D(12), Mesh3D(27), FullyConnected(9)):
            for s in range(0, topo.p, 3):
                for d in range(0, topo.p, 4):
                    assert topo.hops(s, d) == topo.hops(d, s)


class TestSimulator:
    def spec(self, **kw):
        defaults = dict(t_flop=1e-6, t_s=1e-5, t_w=1e-6, t_call=0.0, topology="full")
        defaults.update(kw)
        return MachineSpec(**defaults)

    def test_single_task(self):
        g = TaskGraph(nproc=1)
        g.add_task(0, 2.5)
        r = simulate(g, self.spec())
        assert r.makespan == 2.5
        assert r.busy == [2.5]

    def test_serialization_on_one_proc(self):
        g = TaskGraph(nproc=2)
        for _ in range(4):
            g.add_task(0, 1.0)
        r = simulate(g, self.spec())
        assert r.makespan == 4.0
        assert r.busy[1] == 0.0

    def test_parallel_tasks_overlap(self):
        g = TaskGraph(nproc=4)
        for p in range(4):
            g.add_task(p, 1.0)
        assert simulate(g, self.spec()).makespan == 1.0

    def test_dependency_serializes(self):
        g = TaskGraph(nproc=2)
        a = g.add_task(0, 1.0)
        b = g.add_task(1, 1.0)
        g.add_edge(a, b, words=0)
        r = simulate(g, self.spec())
        # zero words -> no message cost, but still ordering
        assert r.start[b] == pytest.approx(1.0)

    def test_cross_proc_message_cost(self):
        spec = self.spec()
        g = TaskGraph(nproc=2)
        a = g.add_task(0, 1.0)
        b = g.add_task(1, 1.0)
        g.add_edge(a, b, words=100)
        r = simulate(g, spec)
        assert r.start[b] == pytest.approx(1.0 + spec.message_time(100, 1))
        assert r.message_count == 1

    def test_same_proc_edge_free(self):
        g = TaskGraph(nproc=1)
        a = g.add_task(0, 1.0)
        b = g.add_task(0, 1.0)
        g.add_edge(a, b, words=1000)
        r = simulate(g, self.spec())
        assert r.makespan == pytest.approx(2.0)
        assert r.message_count == 0

    def test_priority_breaks_ties(self):
        g = TaskGraph(nproc=1)
        lo = g.add_task(0, 1.0, priority=(5,))
        hi = g.add_task(0, 1.0, priority=(1,))
        r = simulate(g, self.spec())
        assert r.start[hi] < r.start[lo]

    def test_work_conserving_when_best_not_ready(self):
        spec = self.spec()
        g = TaskGraph(nproc=2)
        feeder = g.add_task(1, 5.0)
        blocked = g.add_task(0, 1.0, priority=(0,))
        g.add_edge(feeder, blocked, words=0)
        free = g.add_task(0, 1.0, priority=(9,))
        r = simulate(g, spec)
        # proc 0 should not idle waiting for the high-priority blocked task
        assert r.start[free] == 0.0

    def test_thunks_run_in_dependency_order(self):
        order = []
        g = TaskGraph(nproc=2)
        a = g.add_task(0, 1.0, run=lambda: order.append("a"))
        b = g.add_task(1, 1.0, run=lambda: order.append("b"))
        g.add_edge(a, b)
        simulate(g, self.spec())
        assert order == ["a", "b"]

    def test_makespan_bounds(self):
        """makespan >= critical path and >= total work / p."""
        rng = np.random.default_rng(0)
        g = TaskGraph(nproc=4)
        prev = None
        for k in range(40):
            tid = g.add_task(int(rng.integers(4)), float(rng.uniform(0.1, 1.0)), priority=(k,))
            if prev is not None and rng.uniform() < 0.5:
                g.add_edge(prev, tid, words=int(rng.integers(0, 50)))
            prev = tid
        spec = self.spec()
        r = simulate(g, spec)
        assert r.makespan >= critical_path(g, spec) - 1e-12
        assert r.makespan >= sum(t.cost for t in g.tasks) / 4 - 1e-12

    def test_trace_conservation(self):
        g = TaskGraph(nproc=3)
        for k in range(9):
            g.add_task(k % 3, 0.5, priority=(k,))
        r = simulate(g, self.spec())
        for p in range(3):
            assert r.busy[p] <= r.makespan + 1e-12
        assert sum(r.busy) <= r.nproc * r.makespan + 1e-12

    def test_message_causality(self):
        g = TaskGraph(nproc=2)
        a = g.add_task(0, 1.0)
        b = g.add_task(1, 1.0)
        g.add_edge(a, b, words=10)
        r = simulate(g, self.spec())
        for msg in r.messages:
            assert msg.arrive > msg.depart

    def test_efficiency_helper(self):
        """Two independent unit tasks on two processors: efficiency 1."""
        g = TaskGraph(nproc=2)
        g.add_task(0, 1.0)
        g.add_task(1, 1.0)
        r = simulate(g, self.spec())
        assert 2.0 / (r.nproc * r.makespan) == pytest.approx(1.0)

    def test_invalid_proc_rejected(self):
        g = TaskGraph(nproc=2)
        with pytest.raises(ValueError):
            g.add_task(2, 1.0)

    def test_self_edge_rejected(self):
        g = TaskGraph(nproc=1)
        a = g.add_task(0, 1.0)
        with pytest.raises(ValueError):
            g.add_edge(a, a)

    def test_unknown_task_edge_rejected(self):
        g = TaskGraph(nproc=1)
        a = g.add_task(0, 1.0)
        with pytest.raises(ValueError):
            g.add_edge(a, a + 5)

    def test_pipeline_timing_formula(self):
        """A q-stage one-directional pipeline of unit tasks matches
        (q - 1) * (cost + msg) + cost."""
        spec = self.spec()
        q, words = 5, 20
        g = TaskGraph(nproc=q)
        prev = None
        for k in range(q):
            tid = g.add_task(k, 1.0)
            if prev is not None:
                g.add_edge(prev, tid, words=words)
            prev = tid
        r = simulate(g, spec)
        expect = q * 1.0 + (q - 1) * spec.message_time(words, 1)
        assert r.makespan == pytest.approx(expect)


class TestCollectives:
    def spec(self):
        return MachineSpec(t_s=1e-5, t_w=1e-6)

    def test_broadcast_log_steps(self):
        spec = self.spec()
        assert broadcast_time(spec, 8, 100) == pytest.approx(3 * (1e-5 + 1e-4))

    def test_broadcast_trivial_cases(self):
        spec = self.spec()
        assert broadcast_time(spec, 1, 100) == 0.0
        assert broadcast_time(spec, 8, 0) == 0.0

    def test_reduce_equals_broadcast(self):
        spec = self.spec()
        assert reduce_time(spec, 16, 50) == broadcast_time(spec, 16, 50)

    def test_alltoall_pairwise(self):
        spec = self.spec()
        t = all_to_all_personalized_time(spec, 4, 100, algorithm="pairwise")
        assert t == pytest.approx(3 * (1e-5 + 1e-4))

    def test_alltoall_hypercube(self):
        spec = self.spec()
        t = all_to_all_personalized_time(spec, 4, 100, algorithm="hypercube")
        assert t == pytest.approx(2 * (1e-5 + 1e-6 * 200))

    def test_alltoall_unknown_algorithm(self):
        with pytest.raises(ValueError):
            all_to_all_personalized_time(self.spec(), 4, 10, algorithm="magic")

    def test_alltoall_volume_scaling(self):
        """Pairwise all-to-all time is O(q m): doubling both q and m
        roughly quadruples it."""
        spec = self.spec()
        t1 = all_to_all_personalized_time(spec, 8, 1000)
        t2 = all_to_all_personalized_time(spec, 16, 2000)
        assert 3.0 < t2 / t1 < 5.0
