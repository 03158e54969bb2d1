"""The static schedule certifier: obligations, happens-before, certificates."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies

from repro.exec import (
    certificate_for,
    clear_exec_caches,
    fused_certificate_for,
    plan_for,
    program_for,
)
from repro.exec.plan import _compile_levels, _node_steps, build_plan, compile_level_program
from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian, random_spd
from repro.symbolic.analyze import analyze
from repro.verify import VerificationError
from repro.verify import schedule
from repro.verify.corpus import _summing_row, known_bad_cases
from repro.verify.gate import run_schedule_certification
from repro.verify.schedule import (
    certify_level_program,
    certify_plan,
    format_index_set,
    plan_digest,
)


@pytest.fixture(scope="module")
def sym():
    return analyze(grid2d_laplacian(6))


@pytest.fixture(scope="module")
def plan(sym):
    return build_plan(sym.stree, grain=64)


def _brute_force_obligations(stree, sweep):
    """All-pairs intersection of per-node access sets, straight off the tree."""
    writes, reads = {}, {}
    for s, sn in enumerate(stree.supernodes):
        own = {("x", j) for j in range(sn.col_lo, sn.col_hi)}
        writes[s], reads[s] = set(own), set(own)
        if sweep == "forward":
            writes[s] |= {("contrib", s, int(r)) for r in sn.below}
            for c in stree.children[s]:
                reads[s] |= {("contrib", c, int(r)) for r in stree.supernodes[c].below}
        elif sn.t:
            reads[s] |= {("x", int(r)) for r in sn.below}
    found = set()
    for w in writes:
        for r in reads:
            if w == r:
                continue
            assert not writes[w] & writes[r]  # no write/write pair, ever
            overlap = writes[w] & reads[r]
            if overlap:
                found.add((w, r, tuple(sorted(loc[-1] for loc in overlap))))
    return found


class TestObligations:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=strategies.integers(2, 28),
        density=strategies.floats(0.02, 0.6),
        seed=strategies.integers(0, 2**16),
        grain=strategies.sampled_from([0, 64, 4096]),
    )
    def test_derived_obligations_equal_pairwise_intersection(self, n, density, seed, grain):
        stree = analyze(random_spd(n, density=density, seed=seed)).stree
        plan = build_plan(stree, grain=grain)
        for sweep, derived in zip(
            ("forward", "backward"), schedule._ordering_obligations(plan, stree.n)
        ):
            got = [(w, r, tuple(rows.tolist())) for w, r, rows in zip(*derived)]
            assert len(got) == len(set(got))
            assert set(got) == _brute_force_obligations(stree, sweep)

    def test_format_index_set(self):
        assert format_index_set(np.array([], dtype=np.int64)) == "[]"
        assert format_index_set(np.array([3, 4, 5, 9])) == "[3..5, 9]"
        assert format_index_set(np.array([7])) == "[7]"


class TestCertifyClean:
    @pytest.mark.parametrize("grain", [0, 256, 4096])
    def test_grid_plans_certify_clean(self, sym, grain):
        plan = build_plan(sym.stree, grain=grain)
        cert = certify_plan(plan, sym.stree)
        assert cert.ok, cert.report.render()

    def test_digest_stable_across_rebuilds(self, sym):
        p1 = build_plan(sym.stree, grain=64)
        p2 = build_plan(sym.stree, grain=64)
        assert plan_digest(p1) == plan_digest(p2)

    def test_digest_distinguishes_schedules(self, sym):
        assert plan_digest(build_plan(sym.stree, grain=0)) != plan_digest(
            build_plan(sym.stree, grain=4096)
        )

    def test_gate_battery_certifies_clean(self):
        report = run_schedule_certification()
        assert report.ok, report.render()


class TestCertifyMutants:
    """Direct mutations beyond the seeded corpus (which has its own test)."""

    def test_dropped_task_parent_stalls_forward(self, sym, plan):
        task_parent = plan.task_parent.copy()
        ti = next(i for i in range(plan.ntasks) if task_parent[i] != -1)
        task_parent[ti] = -1
        mutant = dataclasses.replace(plan, task_parent=task_parent)
        report = certify_plan(mutant, sym.stree).report
        assert "schedule-dep-count" in report.rules()

    def test_missing_node_is_flagged(self, sym, plan):
        tasks = list(plan.tasks)
        ti = next(i for i, t in enumerate(tasks) if len(t.nodes) >= 2)
        t = tasks[ti]
        tasks[ti] = dataclasses.replace(t, nodes=t.nodes[1:])
        mutant = dataclasses.replace(plan, tasks=tasks)
        report = certify_plan(mutant, sym.stree).report
        assert "schedule-task-partition" in report.rules()

    def test_wrong_scatter_target_is_flagged(self, sym, plan):
        steps = list(plan.steps)
        si = next(
            i for i, st in enumerate(steps)
            if any(idx.size for idx in st.child_scatter)
        )
        st = steps[si]
        scatters = list(st.child_scatter)
        ci = next(i for i, idx in enumerate(scatters) if idx.size)
        idx = scatters[ci].copy()
        idx[0] += 1  # lands the contribution on the wrong parent row
        scatters[ci] = idx
        steps[si] = dataclasses.replace(st, child_scatter=tuple(scatters))
        mutant = dataclasses.replace(plan, steps=steps)
        report = certify_plan(mutant, sym.stree).report
        assert report.rules() & {
            "schedule-scatter-mismatch",
            "schedule-scatter-overlap",
            "schedule-scatter-bounds",
        }, report.render()

    def test_findings_name_the_conflicting_tasks(self, sym, plan):
        task_children = [list(c) for c in plan.task_children]
        tp = next(i for i in range(plan.ntasks) if task_children[i])
        dropped = task_children[tp].pop(0)
        mutant = dataclasses.replace(plan, task_children=task_children)
        report = certify_plan(mutant, sym.stree).report
        races = [f for f in report if f.rule == "schedule-race"]
        assert races
        assert any(
            f"tasks {min(dropped, tp)} and {max(dropped, tp)}" in f.message
            for f in races
        ), report.render()


    # --- the level program's layout and replay operators: reported, never raised

    @staticmethod
    def _certify_with_level(sym, pick, mutate):
        program = compile_level_program(sym.stree)
        li = next(i for i, lvl in enumerate(program.levels) if pick(lvl))
        levels = list(program.levels)
        levels[li] = mutate(levels[li])
        mutant = dataclasses.replace(program, levels=tuple(levels))
        return certify_level_program(mutant, sym.stree).report

    def _mutate_operator(self, sym, mutate):
        """Certify with ``mutate(ptr, idx, val, lo)`` applied to copies of one
        level's replay operator arrays; ``lo`` is a summing row's
        second-to-last entry."""
        n = sym.n

        def edit(lvl):
            op = lvl.replay.copy()
            lo = int(op.indptr[_summing_row(lvl, n) + 1]) - 2
            op.indptr, op.indices, op.data = mutate(op.indptr, op.indices, op.data, lo)
            return dataclasses.replace(lvl, replay=op)

        return self._certify_with_level(sym, lambda lvl: _summing_row(lvl, n) is not None, edit)

    def test_dropped_replay_entry_is_a_lost_update(self, sym):
        report = self._mutate_operator(
            sym,
            lambda ptr, idx, val, lo: (ptr - (ptr > lo), np.delete(idx, lo), np.delete(val, lo)),
        )
        assert report.rules() == {"schedule-program-scatter"}, report.render()

    def test_replay_row_swapped_reorders_its_sum(self, sym):
        def mutate(ptr, idx, val, lo):
            idx[[lo, lo + 1]] = idx[[lo + 1, lo]]
            return ptr, idx, val

        report = self._mutate_operator(sym, mutate)
        assert report.rules() == {"schedule-program-scatter"}, report.render()

    def test_replay_coefficient_other_than_one_is_flagged(self, sym):
        def mutate(ptr, idx, val, lo):
            val[lo] = 2.0
            return ptr, idx, val

        report = self._mutate_operator(sym, mutate)
        assert report.rules() == {"schedule-program-scatter"}, report.render()

    def test_malformed_replay_indptr_is_reported(self, sym):
        report = self._mutate_operator(sym, lambda ptr, idx, val, lo: (ptr[:-1], idx, val))
        assert report.rules() == {"schedule-program-scatter"}, report.render()

    def test_top_row_from_a_foreign_rhs_row_is_a_gather_finding(self, sym):
        def mutate(lvl):
            op = lvl.replay.copy()
            idx = op.indices.copy()
            idx[0] += 1  # the first top reads its neighbour's column
            op.indices = idx
            return dataclasses.replace(lvl, replay=op)

        report = self._certify_with_level(sym, lambda lvl: lvl.top_total >= 2, mutate)
        assert report.rules() == {"schedule-program-gather"}, report.render()

    def test_merged_backward_gather_is_checked_in_both_halves(self, sym):
        def shift(lo):
            def mutate(lvl):
                rows = lvl.gather_rows.copy()
                rows[lo(lvl)] += 1
                return dataclasses.replace(lvl, gather_rows=rows)
            return mutate

        pick = lambda lvl: lvl.size > lvl.top_total  # noqa: E731
        for lo in (lambda lvl: 0, lambda lvl: lvl.top_total):
            report = self._certify_with_level(sym, pick, shift(lo))
            assert report.rules() == {"schedule-program-gather"}, report.render()

    def test_misshapen_replay_operator_is_a_workspace_finding(self, sym):
        from scipy.sparse import csr_array

        def mutate(lvl):
            op = lvl.replay
            narrow = csr_array((op.data, op.indices, op.indptr), shape=(lvl.size, op.shape[1] - 1))
            return dataclasses.replace(lvl, replay=narrow)

        report = self._certify_with_level(
            sym, lambda lvl: lvl.replay.indices.max(initial=0) < lvl.replay.shape[1] - 1,
            mutate,
        )
        assert report.rules() == {"schedule-program-workspace"}, report.render()

    def test_child_at_its_parents_level_is_a_level_finding(self, sym):
        # A faithful compilation of levels that put a child on its parent's
        # level: the layout is canonical, the level barrier is not enough —
        # in either sweep.
        stree = sym.stree
        child = next(s for s, sn in enumerate(stree.supernodes) if sn.below.size)
        parent = int(stree.parent[child])
        node_level = stree.bottom_up_levels()
        node_level[child] = node_level[parent]
        program = _compile_levels(_node_steps(stree), node_level)
        report = certify_level_program(program, stree).report
        assert report.rules() == {"schedule-program-level"}, report.render()
        assert [f.message.split(" (")[0] for f in report.errors()] == [
            f"[forward] child {child}", f"[backward] supernode {child}",
        ], report.render()

    def test_swapped_top_offsets_are_a_layout_finding(self, sym):
        program = compile_level_program(sym.stree)
        lvl_of = program.node_level
        a = next(s for s in range(program.nsuper) if np.count_nonzero(lvl_of == lvl_of[s]) >= 2)
        b = next(s for s in range(a + 1, program.nsuper) if lvl_of[s] == lvl_of[a])
        top = program.node_top_off.copy()
        top[[a, b]] = top[[b, a]]
        mutant = dataclasses.replace(program, node_top_off=top)
        report = certify_level_program(mutant, sym.stree).report
        assert report.rules() == {"schedule-program-layout"}, report.render()
        assert f"node_top_off of supernode {a} " in report.render()

    @pytest.mark.parametrize(
        "field", ["node_below_off", "contrib_off", "n", "contrib_total", "max_acc"]
    )
    def test_every_declared_program_offset_is_held_to_the_layout(self, sym, field):
        program = compile_level_program(sym.stree)
        value = getattr(program, field)
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[np.argmax(value >= 0)] += 1
        else:
            value += 1
        mutant = dataclasses.replace(program, **{field: value})
        report = certify_level_program(mutant, sym.stree).report
        assert report.rules() == {"schedule-program-layout"}, report.render()

    @pytest.mark.parametrize("field", ["index", "size", "top_total", "arena_lo"])
    def test_every_declared_level_extent_is_held_to_the_layout(self, sym, field):
        report = self._certify_with_level(
            sym, lambda lvl: lvl.size > lvl.top_total > 0,
            lambda lvl: dataclasses.replace(lvl, **{field: getattr(lvl, field) + 1}),
        )
        assert report.rules() == {"schedule-program-layout"}, report.render()


class TestProgramStandsOnTheTree:
    """The level program is certified from the tree alone, never via a plan."""

    def test_certified_without_the_plan_machinery(self, sym, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the program certifier consulted plan machinery")

        for name in ("_ordering_obligations", "_guaranteed_reachability", "plan_digest"):
            monkeypatch.setattr(schedule, name, unreachable)
        cert = certify_level_program(compile_level_program(sym.stree), sym.stree)
        assert cert.ok, cert.report.render()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=strategies.integers(2, 28),
        density=strategies.floats(0.02, 0.6),
        seed=strategies.integers(0, 2**16),
        data=strategies.data(),
    )
    def test_random_patterns_certify_and_their_mutants_are_reported(self, n, density, seed, data):
        stree = analyze(random_spd(n, density=density, seed=seed)).stree
        program = compile_level_program(stree)
        cert = certify_level_program(program, stree)
        assert cert.ok, cert.report.render()

        # A node moved onto its parent's level: a level finding, nothing else.
        kids = np.flatnonzero(stree.parent >= 0)
        if kids.size:
            child = int(data.draw(strategies.sampled_from(kids.tolist())))
            node_level = stree.bottom_up_levels()
            node_level[child] = node_level[stree.parent[child]]
            lifted = _compile_levels(_node_steps(stree), node_level)
            report = certify_level_program(lifted, stree).report
            assert report.rules() == {"schedule-program-level"}, report.render()

        # One replay index shifted by one: a top row's own right-hand-side
        # entry is the gather rule's, any other entry the scatter rule's.
        li = data.draw(strategies.integers(0, program.nlevels - 1))
        lvl = program.levels[li]
        k = data.draw(strategies.integers(0, lvl.replay.indices.size - 1))
        op = lvl.replay.copy()
        op.indices = op.indices.copy()
        op.indices[k] += 1
        levels = list(program.levels)
        levels[li] = dataclasses.replace(lvl, replay=op)
        mutant = dataclasses.replace(program, levels=tuple(levels))
        report = certify_level_program(mutant, stree).report
        own_rhs = k in op.indptr[:lvl.top_total]
        rule = "schedule-program-gather" if own_rhs else "schedule-program-scatter"
        assert report.rules() == {rule}, report.render()

    def test_backward_level_finding_names_levels_and_rows(self, sym):
        # A node lifted onto its parent's level gathers rows its parent
        # solves on that same level: the finding names both and the rows.
        stree = sym.stree
        child = next(s for s, sn in enumerate(stree.supernodes) if sn.below.size)
        parent = int(stree.parent[child])
        node_level = stree.bottom_up_levels()
        node_level[child] = node_level[parent]
        program = _compile_levels(_node_steps(stree), node_level)
        report = certify_level_program(program, stree).report
        lv = int(node_level[parent])
        rows = stree.supernodes[child].below
        mine = rows[(rows >= stree.supernodes[parent].col_lo) & (rows < stree.supernodes[parent].col_hi)]
        assert any(
            f.message == f"[backward] supernode {child} (level {lv}) gathers rows "
            f"{format_index_set(mine)} that supernode {parent} solves on level {lv} "
            "— not strictly above it"
            for f in report.errors()
        ), report.render()

    def test_below_row_missing_from_its_parent_is_a_scatter_finding(self):
        from repro.symbolic.stree import Supernode, SupernodalTree

        def chain(first_rows):
            return SupernodalTree(
                supernodes=[
                    Supernode(0, 0, 1, np.array(first_rows)),
                    Supernode(1, 1, 2, np.array([1, 2])),
                    Supernode(2, 2, 4, np.array([2, 3])),
                ],
                parent=np.array([1, 2, -1]),
            )

        program = compile_level_program(chain([0, 1, 2]))
        # The same shapes, but child 0 now hands row 3 to parent 1, whose
        # rows are only {1, 2}.
        report = certify_level_program(program, chain([0, 1, 3])).report
        assert "supernode 0's below-rows are not all rows of its parent 1" in report.render()

    def test_level_the_program_does_not_have_is_reported_not_raised(self, sym):
        program = compile_level_program(sym.stree)
        node_level = program.node_level.copy()
        node_level[0] = len(program.levels)
        cert = certify_level_program(
            dataclasses.replace(program, node_level=node_level), sym.stree
        )
        assert cert.report.rules() == {"schedule-program-shape"}

    def test_schedule_corpus_fires_exactly_the_recorded_rules(self):
        # Full rule sets recorded under the all-pairs effect model, minus the
        # ordering check on the one plan whose column ranges do not tile
        # (plan-duplicated-columns: its x/x stale reads are not obligations).
        recorded = {
            "plan-dropped-dependency": {"schedule-dep-count", "schedule-race"},
            "plan-scatter-overlap": {"schedule-scatter-overlap"},
            "plan-duplicated-columns": {
                "schedule-coverage-gap", "schedule-coverage-overlap", "schedule-scatter-mismatch",
                "schedule-tree-mismatch",
            },
            "plan-permuted-reduction": {"schedule-reduction-order"},
            "program-child-at-parents-level": {"schedule-program-level"},
            "program-tops-swapped": {"schedule-program-layout"},
            "program-swapped-scatter": {"schedule-program-scatter"},
            "program-replay-row-swapped": {"schedule-program-scatter"},
            "program-replay-entry-dropped": {"schedule-program-scatter"},
            "program-replay-coefficient-two": {"schedule-program-scatter"},
        }
        cases = [c for c in known_bad_cases() if c.name.startswith(("plan-", "program-"))]
        assert {c.name: c.run().rules() for c in cases} == recorded


class TestCachedCertification:
    def test_certificate_for_matches_direct_certification(self, sym):
        clear_exec_caches()
        cert = certificate_for(sym.stree)
        direct = certify_plan(plan_for(sym.stree), sym.stree)
        assert cert.digest == direct.digest
        assert cert.ok


class TestSolveReportCertificate:
    def test_certificate_identical_across_worker_counts(self):
        from repro.core.solver import ParallelSparseSolver

        from repro.exec import solve_exec

        a = grid3d_laplacian(4)
        rng = np.random.default_rng(7)
        b = rng.normal(size=(a.n, 4))
        # The certificate is a function of the structure alone: a fresh
        # solver's fused solve reports the digest the cached plan earns, and
        # the plan's engine returns the fused bits at every worker count.
        solver = ParallelSparseSolver(a, p=1).prepare()
        x, rep = solver.solve(b, backend="fused")
        sym, factor = solver.symbolic, solver.factor
        assert rep.schedule_certificate == fused_certificate_for(sym.stree).digest
        _, again = ParallelSparseSolver(a, p=1).prepare().solve(b, backend="fused")
        assert again.schedule_certificate == rep.schedule_certificate
        b_perm = sym.perm.apply_to_vector(b)
        for workers in (1, 2, 8):
            x_exec = solve_exec(factor, b_perm, workers=workers, plan=plan_for(sym.stree))
            assert np.array_equal(x, sym.perm.unapply_to_vector(x_exec))

    def test_no_certificate_without_verify_or_serial(self):
        from repro.core.solver import ParallelSparseSolver

        a = grid2d_laplacian(5)
        b = np.ones(a.n)
        _, rep = ParallelSparseSolver(a, p=1, verify=False).prepare().solve(
            b, backend="fused"
        )
        assert rep.schedule_certificate is None
        _, rep = ParallelSparseSolver(a, p=1).prepare().solve(b, backend="serial")
        assert rep.schedule_certificate is None

    def test_certified_plan_failure_raises_verification_error(self, sym):
        # Corrupt the cached certificate's report: every later certified
        # call for this structure must fail loudly, not solve anyway.
        clear_exec_caches()
        cert = fused_certificate_for(sym.stree)
        cert.report.add("schedule-race", "seeded for the test", location="test")
        with pytest.raises(VerificationError):
            program_for(sym.stree, certify=True)
        clear_exec_caches()
        assert fused_certificate_for(sym.stree).ok
