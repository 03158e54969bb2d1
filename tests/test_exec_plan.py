"""Execution-plan construction, levels, aggregation, and the plan cache."""

import numpy as np
import pytest

from repro.exec import build_plan, clear_exec_caches, exec_cache_stats, plan_for
from repro.exec.plan import DEFAULT_GRAIN
from repro.symbolic.analyze import analyze
from repro.symbolic.etree import NO_PARENT
from repro.verify.schedule import certify_plan


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exec_caches()
    yield
    clear_exec_caches()


class TestPlanStructure:
    def test_partition_and_topology(self, sym_grid8, sym_grid3d5):
        for sym in (sym_grid8, sym_grid3d5):
            plan = build_plan(sym.stree)
            cert = certify_plan(plan, sym.stree)
            assert cert.ok, cert.report.render()
            covered = sorted(s for task in plan.tasks for s in task.nodes)
            assert covered == list(range(sym.stree.nsuper))

    def test_tasks_respect_tree_edges(self, sym_grid8):
        stree = sym_grid8.stree
        plan = build_plan(stree)
        task_of = {}
        for ti, task in enumerate(plan.tasks):
            for s in task.nodes:
                task_of[s] = ti
        for s in range(stree.nsuper):
            p = int(stree.parent[s])
            if p == NO_PARENT:
                continue
            # A node's parent is either in the same task or in the task's
            # parent task — never in an unrelated task.
            if task_of[s] != task_of[p]:
                assert plan.task_parent[task_of[s]] == task_of[p]

    def test_grain_zero_gives_singleton_tasks(self, sym_grid8):
        plan = build_plan(sym_grid8.stree, grain=0)
        assert plan.ntasks == sym_grid8.stree.nsuper
        assert all(len(task.nodes) == 1 for task in plan.tasks)

    def test_huge_grain_gives_one_task_per_root_tree(self, sym_grid8):
        plan = build_plan(sym_grid8.stree, grain=10**12)
        assert plan.ntasks == len(sym_grid8.stree.roots())

    def test_aggregated_subtrees_stay_below_grain(self, sym_grid3d5):
        grain = 512
        plan = build_plan(sym_grid3d5.stree, grain=grain)
        for task in plan.tasks:
            if len(task.nodes) > 1:
                assert task.flops1 <= grain

    def test_negative_grain_rejected(self, sym_grid8):
        with pytest.raises(ValueError):
            build_plan(sym_grid8.stree, grain=-1)


class TestLevels:
    def test_node_levels_match_stree(self, sym_grid8):
        stree = sym_grid8.stree
        plan = build_plan(stree)
        assert np.array_equal(plan.node_level, stree.bottom_up_levels())

    def test_bottom_up_levels_invariants(self, sym_grid3d5):
        stree = sym_grid3d5.stree
        lv = stree.bottom_up_levels()
        for s in range(stree.nsuper):
            if not stree.children[s]:
                assert lv[s] == 0
            else:
                assert lv[s] == 1 + max(lv[c] for c in stree.children[s])

    def test_task_levels_strictly_increase_to_parent(self, sym_grid3d5):
        plan = build_plan(sym_grid3d5.stree)
        for ti in range(plan.ntasks):
            tp = int(plan.task_parent[ti])
            if tp != -1:
                assert plan.task_level[ti] < plan.task_level[tp]
        assert plan.nlevels == int(plan.task_level.max()) + 1


class TestDeps:
    def test_forward_and_backward_deps_are_inverse(self, sym_grid8):
        plan = build_plan(sym_grid8.stree)
        fwd_ndeps, fwd_dependents = plan.forward_deps()
        bwd_ndeps, bwd_dependents = plan.backward_deps()
        # forward: child tasks gate parents; backward: parents gate children.
        assert sum(fwd_ndeps) == sum(len(d) for d in fwd_dependents)
        assert sum(bwd_ndeps) == sum(len(d) for d in bwd_dependents)
        for ti in range(plan.ntasks):
            for d in fwd_dependents[ti]:
                assert ti in plan.task_children[d]
            for d in bwd_dependents[ti]:
                assert plan.task_parent[d] == ti

    def test_stats_keys(self, sym_grid8):
        stats = build_plan(sym_grid8.stree).stats()
        assert stats["nsuper"] == sym_grid8.stree.nsuper
        assert stats["ntasks"] == stats["subtree_tasks"] + stats["singleton_tasks"]
        assert stats["grain"] == DEFAULT_GRAIN


class TestPlanCache:
    def test_hit_returns_same_object(self, sym_grid8):
        p1 = plan_for(sym_grid8.stree)
        p2 = plan_for(sym_grid8.stree)
        assert p1 is p2
        stats = exec_cache_stats()
        assert stats["plan_hits"] >= 1 and stats["plan_misses"] == 1

    def test_distinct_grains_get_distinct_plans(self, sym_grid8):
        # The cache holds the default-grain plan only; other grains are
        # built explicitly and handed to the engine as ``plan=``.
        p0 = build_plan(sym_grid8.stree, grain=0)
        assert p0.ntasks != plan_for(sym_grid8.stree).ntasks
        assert plan_for(sym_grid8.stree).grain == DEFAULT_GRAIN
        assert exec_cache_stats()["plan_entries"] == 1

    def test_distinct_structures_get_distinct_plans(self, grid8):
        sym_a = analyze(grid8)
        sym_b = analyze(grid8)
        pa = plan_for(sym_a.stree)
        pb = plan_for(sym_b.stree)
        assert pa is not pb

    def test_clear_resets_counters(self, sym_grid8):
        plan_for(sym_grid8.stree)
        clear_exec_caches()
        stats = exec_cache_stats()
        assert stats["plan_entries"] == 0 and stats["plan_misses"] == 0

    def test_entries_evicted_when_structure_dies(self, grid8):
        import gc

        sym = analyze(grid8)
        plan_for(sym.stree)
        assert exec_cache_stats()["plan_entries"] == 1
        del sym
        gc.collect()
        assert exec_cache_stats()["plan_entries"] == 0
