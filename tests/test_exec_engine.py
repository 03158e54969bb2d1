"""Cross-validation battery and fault/edge tests for the thread-pool engine.

No option selects the engine any more; ``solve_exec`` is the benchmark's
measured baseline and a second bitwise reference.  Every matrix in the
shared fixtures must solve identically (bitwise) across repeated runs and
across ``workers in {1, 2, 4}``, must agree with the serial supernodal
solvers and the SPMD-simulated solvers to 1e-10, and the engine must fail
cleanly — never hang — on bad inputs.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.solver import DEFAULT_RELAX, ParallelSparseSolver
from repro.exec import clear_exec_caches, plan_for, prepare_factor, solve_exec
from repro.exec import engine as engine_mod
from repro.exec.engine import _run_task_graph, resolve_workers
from repro.numeric.supernodal import SupernodalFactor, cholesky_supernodal
from repro.numeric.trisolve import (
    backward_supernodal,
    forward_supernodal,
    solve_supernodal,
)
from repro.sparse.build import from_triplets
from repro.symbolic.analyze import analyze
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.stree import Supernode, SupernodalTree


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


class TestCrossValidation:
    def test_matches_serial_supernodal(self, factored, rng):
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 7))
        x_exec = solve_exec(factor, b, workers=2)
        assert np.allclose(x_exec, solve_supernodal(factor, b), atol=1e-10)

    def test_forward_backward_match_serial(self, factored, rng):
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 3))
        plan, prep = plan_for(sym.stree), prepare_factor(factor)
        with ThreadPoolExecutor(max_workers=2) as pool:
            y = engine_mod._forward_mat(plan, prep, b.copy(), pool)
            x = engine_mod._backward_mat(plan, prep, b.copy(), pool)
        assert np.array_equal(y, forward_supernodal(factor, b))
        assert np.array_equal(x, backward_supernodal(factor, b))

    def test_bitwise_reproducible_across_workers_and_runs(self, factored, rng):
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 5))
        runs = [solve_exec(factor, b, workers=w) for w in (1, 2, 4, 1, 2, 4)]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other), (
                "threaded backend is not bitwise reproducible"
            )

    def test_vector_rhs_round_trip(self, factored, rng):
        a, sym, factor = factored
        v = rng.normal(size=a.n)
        x = solve_exec(factor, v, workers=2)
        assert x.shape == (a.n,)
        assert np.allclose(x, solve_supernodal(factor, v), atol=1e-10)

    def test_matches_spmd_simulated_numerics(self, factored, rng):
        a, sym, factor = factored
        solver = ParallelSparseSolver(a, p=4)
        solver.symbolic = sym
        solver.factor = factor
        from repro.mapping.subtree_subcube import subtree_to_subcube

        solver.assign = subtree_to_subcube(sym.stree, 4)
        b = rng.normal(size=(a.n, 4))
        x_sim, rep_sim = solver.solve(b, backend="sim")
        x_thr = sym.perm.unapply_to_vector(
            solve_exec(factor, sym.perm.apply_to_vector(b), workers=2)
        )
        assert np.allclose(x_thr, x_sim, atol=1e-10)
        assert rep_sim.backend == "sim" and rep_sim.forward.sim is not None


class TestSolverBackends:
    def test_serial_backend_reports_wall_clock(self, prepared_grid12, rng):
        b = rng.normal(size=(prepared_grid12.a.n, 2))
        x, rep = prepared_grid12.solve(b, backend="serial")
        assert rep.backend == "serial"
        assert rep.forward.sim is None and rep.backward.sim is None
        assert rep.fbsolve_seconds > 0
        assert rep.residual < 1e-12

    def test_fused_backend_with_refinement(self, prepared_grid12, rng):
        b = rng.normal(size=prepared_grid12.a.n)
        x, rep = prepared_grid12.solve(b, backend="fused", refine=1)
        assert rep.residual < 1e-13

    def test_unknown_backend_rejected(self, prepared_grid12, rng):
        for backend in ("mpi", "threads"):
            with pytest.raises(ValueError, match="backend must be 'sim' or one of"):
                prepared_grid12.solve(rng.normal(size=prepared_grid12.a.n), backend=backend)


class TestEdgeCases:
    def test_n1_system(self):
        a = from_triplets(1, np.array([0]), np.array([0]), np.array([4.0]))
        sym = analyze(a)
        factor = cholesky_supernodal(sym)
        x = solve_exec(factor, np.array([8.0]), workers=2)
        assert np.allclose(x, [2.0])

    def test_empty_supernode_is_rejected(self):
        # No constructor builds a zero-width supernode, so no executor carries
        # a lane for one: a hand-built tree fails at SupernodalTree
        # construction.
        with pytest.raises(ValueError, match="supernode 1 has no columns"):
            SupernodalTree(
                supernodes=[
                    Supernode(index=0, col_lo=0, col_hi=1, rows=np.array([0])),
                    Supernode(index=1, col_lo=1, col_hi=1, rows=np.array([], dtype=np.int64)),
                    Supernode(index=2, col_lo=1, col_hi=2, rows=np.array([1])),
                ],
                parent=np.array([NO_PARENT, NO_PARENT, NO_PARENT]),
            )

    def test_multi_rhs_wide_block(self, sym_grid8, rng):
        factor = cholesky_supernodal(sym_grid8)
        b = rng.normal(size=(sym_grid8.n, 16))
        assert np.allclose(
            solve_exec(factor, b, workers=4), solve_supernodal(factor, b), atol=1e-10
        )

    def test_rhs_shape_mismatch_rejected(self, sym_grid8, rng):
        factor = cholesky_supernodal(sym_grid8)
        with pytest.raises(ValueError, match="rows"):
            solve_exec(factor, rng.normal(size=3), workers=1)
        with pytest.raises(ValueError, match="vector"):
            solve_exec(factor, rng.normal(size=(sym_grid8.n, 2, 2)), workers=1)


class TestFaults:
    def test_singular_diagonal_raises_value_error(self, sym_grid8, rng):
        base = cholesky_supernodal(sym_grid8)
        blocks = [blk.copy() for blk in base.blocks]
        blocks[0][0, 0] = 0.0
        broken = SupernodalFactor(stree=base.stree, blocks=blocks)
        with pytest.raises(ValueError, match="singular"):
            solve_exec(broken, rng.normal(size=sym_grid8.n), workers=2)

    def test_nonfinite_diagonal_raises_value_error(self, sym_grid8, rng):
        base = cholesky_supernodal(sym_grid8)
        blocks = [blk.copy() for blk in base.blocks]
        blocks[-1][0, 0] = np.nan
        broken = SupernodalFactor(stree=base.stree, blocks=blocks)
        with pytest.raises(ValueError, match="singular or non-finite"):
            prepare_factor(broken)

    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_nonpositive_workers_rejected(self, sym_grid8, rng, workers):
        factor = cholesky_supernodal(sym_grid8)
        with pytest.raises(ValueError, match="workers"):
            solve_exec(factor, rng.normal(size=sym_grid8.n), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, "2", True])
    def test_non_integral_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(workers)

    def test_default_workers_positive(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(np.int64(3)) == 3

    def test_raising_task_does_not_deadlock_pool(self):
        # A linear chain of 6 tasks; task 2 explodes.  The pool must drain
        # and re-raise instead of waiting on never-submitted successors.
        ran: list[int] = []

        def body(i: int) -> None:
            if i == 2:
                raise RuntimeError("boom in task 2")
            ran.append(i)

        ndeps = [0, 1, 1, 1, 1, 1]
        dependents = [[1], [2], [3], [4], [5], []]
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="boom in task 2"):
                _run_task_graph(6, ndeps, dependents, body, pool)
        assert 3 not in ran and 4 not in ran and 5 not in ran

    def test_raising_kernel_inside_engine_propagates(self, sym_grid8, rng, monkeypatch):
        factor = cholesky_supernodal(sym_grid8)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel failure injected")

        monkeypatch.setattr(engine_mod, "tri_apply", boom)
        with pytest.raises(RuntimeError, match="kernel failure injected"):
            solve_exec(factor, rng.normal(size=(sym_grid8.n, 2)), workers=2)

    def test_dependency_cycle_detected(self):
        # Two tasks that gate each other: no ready task exists.
        with pytest.raises(ValueError, match="cycle"):
            _run_task_graph(2, [1, 1], [[1], [0]], lambda i: None, None)

    def test_plan_rejects_rows_not_contained_in_parent(self):
        # Child below-row 2 does not appear in its parent's rows [1].
        stree = SupernodalTree(
            supernodes=[
                Supernode(index=0, col_lo=0, col_hi=1, rows=np.array([0, 2])),
                Supernode(index=1, col_lo=1, col_hi=2, rows=np.array([1])),
                Supernode(index=2, col_lo=2, col_hi=3, rows=np.array([2])),
            ],
            parent=np.array([1, NO_PARENT, NO_PARENT]),
        )
        from repro.exec import build_plan

        with pytest.raises(ValueError, match="assembly tree"):
            build_plan(stree)


class TestPreparedFactorCache:
    def test_prepare_is_cached_per_factor(self, sym_grid8):
        factor = cholesky_supernodal(sym_grid8)
        assert prepare_factor(factor) is prepare_factor(factor)

    def test_plan_reused_across_solves(self, sym_grid8, rng):
        from repro.exec import exec_cache_stats

        factor = cholesky_supernodal(sym_grid8)
        for _ in range(3):
            solve_exec(factor, rng.normal(size=sym_grid8.n), workers=2)
        stats = exec_cache_stats()
        assert stats["plan_misses"] == 1 and stats["plan_hits"] >= 2
