"""The fused level-program backend: bitwise agreement, zero-allocation
steady state, program/panel caching, and the program certifier.

The central claims under test, mirroring the engine battery in
``test_exec_engine.py``:

* fused solves are *bitwise* identical to the serial supernodal solvers
  and the thread-pool engine (at every worker count and plan grain), for
  every problem class and NRHS width;
* a second solve against a prepared factor runs entirely out of the
  workspace arena — the sweeps allocate no arrays — and each of its
  pre-bound library calls is bytewise the ``@`` product it replaces;
* the compiled program earns a determinism certificate whose digest no
  plan grain changes, and the certifier rejects mutated programs.
"""

import dataclasses
import gc
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.sparse import csr_array

from repro.core.solver import DEFAULT_RELAX
from repro.exec import (
    backward_fused,
    clear_exec_caches,
    compile_level_program,
    forward_fused,
    fused_certificate_for,
    fused_panels_for,
    plan_for,
    prepare_factor,
    program_for,
    solve_exec,
    solve_fused,
)
from repro.exec import arena, fused
from repro.exec.arena import build_fused_workspace
from repro.exec.fused import build_fused_panels
from repro.exec.plan import _compile_levels, build_plan
from repro.numeric.supernodal import cholesky_supernodal
from repro.numeric.trisolve import (
    backward_supernodal,
    forward_supernodal,
    solve_supernodal,
)
from repro.sparse.generators import fe_mesh_3d, grid2d_laplacian, grid3d_laplacian, random_spd
from repro.symbolic.analyze import analyze


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exec_caches()
    yield
    clear_exec_caches()


# every matrix unrelaxed (ids without a suffix) and at the solver's default
_BATTERY = [(m, r) for r in (0, DEFAULT_RELAX) for m in ("grid8", "grid3d5", "fe9", "rand60")]


@pytest.fixture(scope="module", params=_BATTERY,
                ids=[m if r == 0 else f"{m}-relax{r}" for m, r in _BATTERY])
def factored(request):
    name, relax = request.param
    a = request.getfixturevalue(name)
    sym = analyze(a, relax=relax)
    return a, sym, cholesky_supernodal(sym)


class TestBitwiseAgreement:
    """The one claim everything else rests on: one schedule, one answer."""

    @pytest.mark.parametrize("nrhs", [1, 4, 16])
    def test_bitwise_vs_serial_and_threads(self, factored, rng, nrhs):
        a, sym, factor = factored
        b = rng.normal(size=(a.n, nrhs))
        x_serial = solve_supernodal(factor, b)
        x_fused = solve_fused(factor, b)
        assert np.array_equal(x_fused, x_serial), (
            "fused backend is not bitwise identical to the serial solver"
        )
        plan = plan_for(sym.stree)
        for workers in (1, 2, 8):
            assert np.array_equal(
                x_fused, solve_exec(factor, b, workers=workers, plan=plan)
            ), f"fused is not bitwise identical to the engine at workers={workers}"

    def test_relaxed_partition_agrees_to_the_byte(self, rng):
        # Amalgamation widens supernodes with stored zeros; the certified
        # program over that tree still reproduces the reference walker.
        sym = analyze(grid3d_laplacian(8), relax=2)
        factor = cholesky_supernodal(sym)
        b = rng.normal(size=(sym.n, 3))
        assert np.array_equal(solve_fused(factor, b), solve_supernodal(factor, b))
        assert fused_certificate_for(sym.stree).ok

    @pytest.mark.parametrize("grain", [0, 256, 4096])
    def test_bitwise_across_plan_grains(self, factored, rng, grain):
        # The level program knows no grain; the engine's plan at ANY grain
        # of the same structure must reproduce the fused answer bit for bit.
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 4))
        x = solve_fused(factor, b)
        assert np.array_equal(x, solve_supernodal(factor, b))
        plan = build_plan(sym.stree, grain=grain)
        assert np.array_equal(x, solve_exec(factor, b, workers=2, plan=plan))

    def test_forward_backward_sweeps_match_serial(self, factored, rng):
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 3))
        y = forward_fused(factor, b)
        assert np.array_equal(y, forward_supernodal(factor, b))
        assert np.array_equal(
            backward_fused(factor, y), backward_supernodal(factor, y)
        )

    def test_vector_rhs_round_trip(self, factored, rng):
        a, sym, factor = factored
        v = rng.normal(size=a.n)
        x = solve_fused(factor, v)
        assert x.shape == (a.n,)
        assert np.array_equal(x, solve_supernodal(factor, v))

    def test_repeated_solves_are_identical(self, factored, rng):
        # Workspace reuse must not leak state between solves.
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 5))
        runs = [solve_fused(factor, b) for _ in range(4)]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)


    @pytest.mark.parametrize("nrhs", [1, 16])
    def test_sparse_right_hand_sides_agree_to_the_byte(self, factored, rng, nrhs):
        # Unit vectors and half-zero blocks push exact zeros of both signs
        # through every product sum and leave whole subtrees at zero.
        # array_equal calls -0.0 and +0.0 equal; the bytes do not.
        a, sym, factor = factored
        unit = np.zeros((a.n, nrhs))
        unit[rng.integers(0, a.n, size=nrhs), np.arange(nrhs)] = -1.0
        half = rng.normal(size=(a.n, nrhs))
        half[rng.random(half.shape) < 0.5] = -0.0
        for b in (unit, half):
            assert solve_fused(factor, b).tobytes() == solve_supernodal(factor, b).tobytes()
            y = forward_fused(factor, b)
            assert y.tobytes() == forward_supernodal(factor, b).tobytes()


def _assert_lowering_matches_the_factor(a):
    """Every level's ``F`` densified == the block matrix assembled from ``prep.rect``."""
    sym = analyze(a)
    factor = cholesky_supernodal(sym)
    program = program_for(sym.stree)
    prep = prepare_factor(factor)
    panels = build_fused_panels(program, prep)
    assert len(panels.rect) == len(panels.rect_t) == program.nlevels
    for lvl, f, ft in zip(program.levels, panels.rect, panels.rect_t):
        tt, nb = lvl.top_total, lvl.size - lvl.top_total
        assert f.format == "csr" and f.shape == (nb, tt)
        assert ft.format == "csc" and ft.shape == (tt, nb)
        for ours, theirs in ((ft.data, f.data), (ft.indices, f.indices), (ft.indptr, f.indptr)):
            assert np.shares_memory(ours, theirs) or ours.size == 0
        assert f.indices.dtype == np.int32 and f.indptr.dtype == np.int32
        assert f.indptr[0] == 0 and f.indptr[-1] == f.indices.size == f.data.size
        assert np.all((f.indices >= 0) & (f.indices < max(tt, 1)))

        expect = np.zeros((nb, tt))
        entries = 0
        for s in np.flatnonzero(program.node_level == lvl.index).tolist():
            rect = prep.rect[s]
            if rect.shape[0]:
                row = program.node_below_off[s] - tt
                col = program.node_top_off[s]
                expect[row : row + rect.shape[0], col : col + rect.shape[1]] = rect
                entries += rect.size
        # one stored entry per (below row, k) — zeros of the factor included —
        # each row's columns ascending and therefore distinct
        assert f.nnz == entries
        for j in range(nb):
            assert np.all(np.diff(f.indices[f.indptr[j] : f.indptr[j + 1]]) == 1)
        assert np.array_equal(f.toarray(), expect)
        assert np.array_equal(ft.toarray(), expect.T)


class TestRectangleLowering:
    """``build_fused_panels``: one CSR block per level, the factor's values in place."""

    @pytest.mark.parametrize(
        "build",
        [lambda: grid2d_laplacian(6), lambda: grid3d_laplacian(4), lambda: fe_mesh_3d(4, seed=219)],
        ids=["grid2d(6)", "grid3d(4)", "fe_mesh_3d(4)"],
    )
    def test_level_blocks_are_the_factor_rectangles(self, build):
        _assert_lowering_matches_the_factor(build())

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        a=strategies.builds(
            random_spd,
            n=strategies.integers(2, 40),
            density=strategies.floats(0.02, 0.6),
            seed=strategies.integers(0, 2**16),
        )
    )
    def test_level_blocks_on_random_patterns(self, a):
        clear_exec_caches()
        _assert_lowering_matches_the_factor(a)

    def test_single_supernode_has_an_empty_block(self):
        a = random_spd(1, seed=0)
        sym = analyze(a)
        factor = cholesky_supernodal(sym)
        panels = fused_panels_for(factor)
        assert [f.shape for f in panels.rect] == [(0, 1)]
        b = np.array([[3.0, -0.0]])
        assert solve_fused(factor, b).tobytes() == solve_supernodal(factor, b).tobytes()


class TestZeroAllocationSteadyState:
    def test_second_solve_reuses_arena_workspace(self, sym_grid8, rng):
        factor = cholesky_supernodal(sym_grid8)
        b = rng.normal(size=(sym_grid8.n, 4))
        solve_fused(factor, b)
        prep = prepare_factor(factor)
        built_after_first = prep.arena.stats()["built"]
        for _ in range(5):
            solve_fused(factor, b)
        assert prep.arena.stats()["built"] == built_after_first, (
            "steady-state solves built new workspaces instead of leasing"
        )

    @staticmethod
    def _sweep_peak(sym, m, rng, split=False) -> int:
        """Peak bytes tracemalloc sees in one warm forward + backward sweep.

        A *split* workspace runs the program's two parts on two threads.
        """
        factor = cholesky_supernodal(sym)
        program = program_for(sym.stree)
        assert program.parts or not split, "the tree has no fork to split at"
        ws = build_fused_workspace(program, m)
        fused._bind(ws, program, fused_panels_for(factor), program.parts if split else ())
        ws.xc[: sym.n] = rng.normal(size=(sym.n, m))
        fused._sweep(ws.forward)  # warm every code path
        fused._sweep(ws.backward)
        tracemalloc.start()
        fused._sweep(ws.forward)
        fused._sweep(ws.backward)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_sweeps_allocate_no_per_node_arrays(self, sym_grid8, rng):
        # Drive the tapes directly on a bound workspace: every call writes
        # into the workspace, so the hot path allocates no arrays at all —
        # only loop-iteration objects, nothing that grows with the node
        # count or the width, no term stack, no product block.
        for m, split in ((1, False), (16, False), (16, True)):
            peak = self._sweep_peak(sym_grid8, m, rng, split)
            assert peak < 8 * 1024, (
                f"fused sweeps allocated {peak} bytes at peak with {m} columns "
                f"(split: {split}) — the zero-allocation path regressed (a product "
                "block is back?)"
            )

    def test_sweeps_on_a_deep_3d_tree_allocate_no_arrays(self, rng):
        # grid3d(12)'s widest level returns product blocks far above the
        # bound at 16 columns (and its scatter sizes at one): only sweeps
        # that write every product into the workspace stay under it.
        sym = analyze(grid3d_laplacian(12), relax=DEFAULT_RELAX)
        for m, split in ((1, False), (16, False), (16, True)):
            peak = self._sweep_peak(sym, m, rng, split)
            assert peak < 8 * 1024, (
                f"fused sweeps allocated {peak} bytes at peak with {m} columns "
                f"(split: {split}) on grid3d(12)"
            )

    def test_distinct_nrhs_lease_distinct_workspaces(self, sym_grid8, rng):
        factor = cholesky_supernodal(sym_grid8)
        solve_fused(factor, rng.normal(size=(sym_grid8.n, 1)))
        solve_fused(factor, rng.normal(size=(sym_grid8.n, 8)))
        prep = prepare_factor(factor)
        assert prep.arena.stats()["built"] >= 2

    def test_a_workspace_never_runs_another_program(self, sym_grid8, rng, monkeypatch):
        # Arena entries are filed under id(program), and a collected
        # hand-built program's id is recycled.  File every program under one
        # id: each lease must still get a workspace built for its own program.
        factor = cholesky_supernodal(sym_grid8)
        b = rng.normal(size=(sym_grid8.n, 2))
        ref = solve_supernodal(factor, b)
        built_for = {}

        def build(program, m):
            ws = build_fused_workspace(program, m)
            built_for[id(ws)] = program
            return ws

        real_lease = fused._lease

        @contextmanager
        def lease(factor, program, m):
            with real_lease(factor, program, m) as ws:
                own = program_for(factor.stree) if program is None else program
                assert built_for[id(ws)] is own, "a workspace ran another program"
                yield ws

        monkeypatch.setattr(fused, "build_fused_workspace", build)
        monkeypatch.setattr(fused, "_lease", lease)
        monkeypatch.setattr(arena, "id", lambda obj: 0, raising=False)
        hand_built = [compile_level_program(sym_grid8.stree) for _ in range(2)]
        for program in [*hand_built, None, *hand_built, None]:
            x = solve_fused(factor, b, program=program)
            assert x.tobytes() == ref.tobytes()


class TestHandBuiltPrograms:
    """A ``program=`` the caller compiled: its panels and tapes live in the arena."""

    @staticmethod
    def _hand_built(sym):
        return compile_level_program(sym.stree)

    def test_warm_solves_pack_its_panels_once(self, sym_grid8, rng, monkeypatch):
        # Three widths, three workspaces, one packing; then three warm
        # solves that neither pack nor bind again.
        factor = cholesky_supernodal(sym_grid8)
        blocks = [rng.normal(size=(sym_grid8.n, m)) for m in (1, 2, 3)]
        packed = []
        real = fused.build_fused_panels
        monkeypatch.setattr(
            fused, "build_fused_panels",
            lambda program, prep: packed.append(program) or real(program, prep),
        )
        program = self._hand_built(sym_grid8)
        for b in blocks + blocks:
            x = solve_fused(factor, b, program=program)
            assert x.tobytes() == solve_supernodal(factor, b).tobytes()
        assert len(packed) == 1 and packed[0] is program
        assert prepare_factor(factor).arena.stats()["built"] == 3

    def test_collected_programs_leave_nothing_in_the_arena(self, sym_grid8, rng):
        b = rng.normal(size=(sym_grid8.n, 2))

        def after(count):
            factor = cholesky_supernodal(sym_grid8)
            solve_fused(factor, b)  # the cached program's entry stays
            for _ in range(count):
                solve_fused(factor, b, program=self._hand_built(sym_grid8))
                gc.collect()
            return prepare_factor(factor).arena.stats()

        one, twenty = after(1), after(20)
        assert twenty["free"] == one["free"] == 1
        assert twenty["owners"] == one["owners"] == 1


    def test_concurrent_solves_share_one_entry(self, sym_grid8, rng):
        # More threads than cores, switching often, all on one hand-built
        # program: every answer is the serial one's bits, the program ends
        # with one shared panel set, and no leased workspace is lost.
        factor = cholesky_supernodal(sym_grid8)
        program = self._hand_built(sym_grid8)
        blocks = [rng.normal(size=(sym_grid8.n, m)) for m in (1, 2, 3)]
        expect = [solve_supernodal(factor, b).tobytes() for b in blocks]
        wrong = []

        def work():
            for k in range(30):
                b = blocks[k % 3]
                if solve_fused(factor, b, program=program).tobytes() != expect[k % 3]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong
        arena = prepare_factor(factor).arena
        stats = arena.stats()
        assert stats["free"] == stats["built"] and stats["owners"] == 1
        assert arena.shared(program, lambda: pytest.fail("panels packed again")) is not None


class TestDirectCalls:
    """The tapes call scipy's compiled loops directly, not through ``@``.

    Each tape product is the ``(call, args)`` pair ``@`` itself would
    make, on an output the sweep has zeroed; these pin that at whatever
    numpy and scipy are installed (CI runs this file at the floors).
    """

    @pytest.mark.parametrize("m", [1, 2, 16])
    def test_direct_calls_are_bytewise_the_products(self, factored, rng, m):
        a, sym, factor = factored
        program = program_for(sym.stree)
        panels = fused_panels_for(factor)
        for lvl, diag, diag_t, rect, rect_t in zip(
            program.levels, panels.diag, panels.diag_t, panels.rect, panels.rect_t
        ):
            for op in (lvl.replay, diag, diag_t, rect, rect_t):
                x = rng.normal(size=(op.shape[1], m))
                x[::3] = -0.0  # a row of signed zeros must still sum to +0.0
                y = np.zeros((op.shape[0], m))
                call, args = fused._matvec(op, x, y)
                call(*args)
                assert y.tobytes() == (op @ x).tobytes(), (lvl.index, op.format, op.shape)


class TestProgramCompilation:
    def test_program_grain_invariant(self, sym_grid8):
        # The program compiled from the tree is the one the steps and node
        # levels of the engine's plan give, at every task aggregation.
        ref = compile_level_program(sym_grid8.stree)
        for g in (0, 256, 4096):
            plan = build_plan(sym_grid8.stree, grain=g)
            prog = _compile_levels(plan.steps, plan.node_level)
            assert prog.nsuper == ref.nsuper
            assert np.array_equal(prog.node_level, ref.node_level)
            assert len(prog.levels) == len(ref.levels)
            for la, lb in zip(prog.levels, ref.levels):
                assert np.array_equal(la.gather_rows, lb.gather_rows)
                assert np.array_equal(la.replay.indptr, lb.replay.indptr)
                assert np.array_equal(la.replay.indices, lb.replay.indices)

    def test_program_and_panels_memoized(self, sym_grid8):
        factor = cholesky_supernodal(sym_grid8)
        assert program_for(sym_grid8.stree) is program_for(sym_grid8.stree)
        assert fused_panels_for(factor) is fused_panels_for(factor)

    def test_solver_backend_fused(self, prepared_grid12, rng):
        b = rng.normal(size=(prepared_grid12.a.n, 2))
        x, rep = prepared_grid12.solve(b, backend="fused")
        assert rep.backend == "fused"
        assert rep.forward.sim is None and rep.backward.sim is None
        assert rep.fbsolve_seconds > 0
        assert rep.residual < 1e-12
        x_ser, rep_ser = prepared_grid12.solve(b, backend="serial")
        assert np.array_equal(x, x_ser)
        # One structure, one determinism certificate: the program's.
        stree = prepared_grid12.symbolic.stree
        assert rep.schedule_certificate == fused_certificate_for(stree).digest
        assert rep_ser.schedule_certificate is None

    def test_workers_rejected_on_fused_backend(self, prepared_grid12, rng):
        # There is one fused execution and no worker count to choose.
        with pytest.raises(TypeError, match="workers"):
            prepared_grid12.solve(
                rng.normal(size=prepared_grid12.a.n), backend="fused", workers=2
            )


class TestFusedCertifier:
    def test_certificate_clean_and_digest_matches_plan(self, factored):
        # The digest is the program's own: a program compiled from the
        # engine's plan, at any grain, earns the very same one.
        from repro.verify.schedule import certify_level_program

        a, sym, factor = factored
        cert = fused_certificate_for(sym.stree)
        assert cert.ok, [str(f) for f in cert.report.errors()]
        for grain in (0, 4096):
            plan = build_plan(sym.stree, grain=grain)
            program = _compile_levels(plan.steps, plan.node_level)
            assert certify_level_program(program, sym.stree).digest == cert.digest

    def test_certifier_rejects_swapped_scatter(self, sym_grid8):
        import dataclasses

        from repro.verify.schedule import certify_level_program

        program = compile_level_program(sym_grid8.stree)
        # a row that sums two child contributions: swapping them reorders its sum
        li, row = next(
            (i, r) for i, lvl in enumerate(program.levels)
            for r in range(lvl.size)
            if np.count_nonzero(lvl.replay.indices[
                lvl.replay.indptr[r] : lvl.replay.indptr[r + 1]] >= program.n) >= 2
        )
        lvl = program.levels[li]
        lo = int(lvl.replay.indptr[row + 1]) - 2
        indices = lvl.replay.indices.copy()
        indices[lo], indices[lo + 1] = indices[lo + 1], indices[lo]
        replay = csr_array((lvl.replay.data, indices, lvl.replay.indptr), shape=lvl.replay.shape)
        levels = list(program.levels)
        levels[li] = dataclasses.replace(lvl, replay=replay)
        bad = dataclasses.replace(program, levels=tuple(levels))
        cert = certify_level_program(bad, sym_grid8.stree)
        assert not cert.ok
        assert "schedule-program-scatter" in {f.rule for f in cert.report.errors()}

    def test_certifier_rejects_mislevelled_node(self, sym_grid8):
        import dataclasses

        from repro.verify.schedule import certify_level_program

        program = compile_level_program(sym_grid8.stree)
        node_level = program.node_level.copy()
        node_level[0] += 1
        bad = dataclasses.replace(program, node_level=node_level)
        cert = certify_level_program(bad, sym_grid8.stree)
        assert not cert.ok

    def test_certifying_program_for_raises_on_broken_program(self, sym_grid8):
        # certify=True on a clean structure must succeed and memoize.
        p1 = program_for(sym_grid8.stree, certify=True)
        p2 = program_for(sym_grid8.stree, certify=True)
        assert p1 is p2


class TestPoolReuse:
    def test_solve_exec_builds_one_pool_for_both_sweeps(self, sym_grid8, rng, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        from repro.exec import engine as engine_mod

        factor = cholesky_supernodal(sym_grid8)
        constructed = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "ThreadPoolExecutor", CountingPool)
        b = rng.normal(size=(sym_grid8.n, 3))
        x = solve_exec(factor, b, workers=2)
        assert len(constructed) == 1, (
            "solve_exec must reuse one thread pool across the forward and "
            f"backward sweeps, constructed {len(constructed)}"
        )
        assert np.array_equal(x, solve_supernodal(factor, b))

    def test_single_worker_builds_no_pool(self, sym_grid8, rng, monkeypatch):
        from repro.exec import engine as engine_mod

        factor = cholesky_supernodal(sym_grid8)

        def boom(*args, **kwargs):
            raise AssertionError("workers=1 must not construct a thread pool")

        monkeypatch.setattr(engine_mod, "ThreadPoolExecutor", boom)
        x = solve_exec(factor, rng.normal(size=sym_grid8.n), workers=1)
        assert np.all(np.isfinite(x))


def test_fused_tolerates_gc_of_program_midlife(sym_grid8, rng):
    # The solve keeps its own reference; cache eviction of the structure
    # must never invalidate an in-flight program.
    factor = cholesky_supernodal(sym_grid8)
    b = rng.normal(size=(sym_grid8.n, 2))
    program = program_for(sym_grid8.stree)
    gc.collect()
    x = solve_fused(factor, b, program=program)
    assert np.array_equal(x, solve_supernodal(factor, b))
