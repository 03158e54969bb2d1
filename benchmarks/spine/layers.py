"""The traced run: a span around every layer call, per-layer metrics out.

The harness re-enacts what ``prepare()``, the first ``solve()`` and a warm
``solve()`` do by calling the same public functions itself, each inside a
span, so a layer's cost is visible without touching the program.  Time
metrics are medians of span self time; a layer the workload never enters
(certification with ``verify=False``, serving outside ``serve_3d_mixed``)
reports 0 with sample count 0.  Counts repeat exactly from run to run.
"""

from __future__ import annotations

import gc
import itertools
import os
import time

import numpy as np
from scipy.sparse.linalg import spsolve_triangular

from repro.core.solver import ParallelSparseSolver
from repro.exec import (
    backward_fused,
    certificate_for,
    clear_exec_caches,
    default_workers,
    exec_cache_stats,
    forward_fused,
    fused_certificate_for,
    fused_panels_for,
    plan_for,
    prepare_factor,
    program_for,
    solve_exec,
    solve_fused,
)
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.numeric.kernels import rect_apply, rect_apply_t, solve_lower, solve_lower_t
from repro.numeric.supernodal import cholesky_supernodal
from repro.numeric.trisolve import backward_supernodal, forward_supernodal
from repro.ordering.api import order
from repro.serve import SolveService
from repro.sparse.ops import relative_residual
from repro.symbolic.analyze import analyze

from .stats import median, scalar, summarize
from .tracing import Tracer
from .workloads import (
    CLOSED_OUTSTANDING,
    FUTURE_TIMEOUT,
    POOL_SIZE,
    SLO_SECONDS,
    Checker,
    Request,
    ServePhase,
    Sizing,
    Workload,
    closed_loop,
    matrix_of,
    new_checker,
    open_loop,
    seeded,
    serve_checker,
    timed,
)

#: Every per-layer metric and its unit, in the order of the README glossary.
PER_LAYER_UNITS: dict[str, str] = {
    # set-up pipeline
    "sparse.generators.build_s": "s",
    "ordering.order_s": "s",
    "symbolic.analyze_s": "s",
    "symbolic.self_s": "s",
    "numeric.supernodal.cholesky_s": "s",
    "mapping.subtree_subcube_s": "s",
    "verify.invariants_s": "s",
    "symbolic.nsuper": "count",
    "symbolic.factor_nnz": "count",
    "numeric.factor_flops": "flop",
    "numeric.factor_bytes": "B",
    # lazy first-solve work
    "exec.plan.build_s": "s",
    "verify.schedule.certify_plan_s": "s",
    "exec.plan.compile_s": "s",
    "verify.schedule.certify_program_s": "s",
    "exec.cache.prepare_factor_s": "s",
    "exec.fused.panels_s": "s",
    "core.solver.first_solve_other_s": "s",
    "exec.plan.ntasks": "count",
    "exec.plan.nlevels": "count",
    "core.sim.wall_s": "s",
    "core.sim.fbsolve_makespan_s": "s",
    # warm solve, decomposed as solve() does it
    "ordering.permutation.apply_ms": "ms",
    "exec.fused.forward_ms": "ms",
    "exec.fused.backward_ms": "ms",
    "core.solver.overhead_ms": "ms",
    "sparse.ops.residual_ms": "ms",
    # op classes inside the sweeps (canonical kernels replayed)
    "numeric.kernels.solve_lower_ms": "ms",
    "numeric.kernels.rect_apply_ms": "ms",
    "numeric.kernels.solve_lower_t_ms": "ms",
    "numeric.kernels.rect_apply_t_ms": "ms",
    "numeric.kernels.rect_calls": "count",
    "numeric.kernels.rect_flops": "flop",
    "numeric.kernels.trsm_flops": "flop",
    "numeric.solve_flops_per_rhs": "flop",
    "exec.fused.mflops": "MFLOP/s",
    "exec.fused.level_overhead_ms": "ms",
    # alternatives that must justify their existence
    "numeric.trisolve.forward_ms": "ms",
    "numeric.trisolve.backward_ms": "ms",
    "exec.engine.solve_w1_ms": "ms",
    "exec.engine.solve_wmax_ms": "ms",
    "exec.engine.workers_max": "count",
    "baseline.scipy.solve_ms": "ms",
    # caches
    "exec.arena.built": "count",
    "exec.arena.leases": "count",
    "exec.cache.misses_steady": "count",
    # serving
    "serve.service.submit_us_p50": "us",
    "serve.batcher.queue_wait_ms_mean": "ms",
    "serve.batcher.queue_wait_ms_max": "ms",
    "serve.batch_width_mean.open": "count",
    "serve.batch_width_mean.closed": "count",
    "serve.batches.open": "count",
    "serve.trigger.full": "count",
    "serve.trigger.deadline": "count",
    "serve.trigger.idle": "count",
    "serve.trigger.drain": "count",
    "serve.exec_busy_share.open": "share",
    "serve.exec_busy_share.closed": "share",
    "serve.exec_ms_per_column.closed": "ms",
    "serve.service.overhead_ms_per_batch": "ms",
    "serve.rejected": "count",
    "serve.failed": "count",
    "serve.cancelled": "count",
    "serve.close_drain_s": "s",
    "serve.slo_miss_share": "share",
    "loadgen.lateness_ms_p50": "ms",
    "loadgen.lateness_ms_p99": "ms",
    # the harness itself
    "trace.overhead_share": "share",
    "failed_share": "share",
}

#: Span name -> metric, for layers reported as the median self time in seconds.
SPAN_SECONDS = {
    "sparse.generators.build": "sparse.generators.build_s",
    "ordering.order": "ordering.order_s",
    "symbolic.analyze": "symbolic.analyze_s",
    "numeric.supernodal.cholesky": "numeric.supernodal.cholesky_s",
    "mapping.subtree_subcube": "mapping.subtree_subcube_s",
    "verify.invariants": "verify.invariants_s",
    "exec.plan.build": "exec.plan.build_s",
    "verify.schedule.certify_plan": "verify.schedule.certify_plan_s",
    "exec.plan.compile": "exec.plan.compile_s",
    "verify.schedule.certify_program": "verify.schedule.certify_program_s",
    "exec.cache.prepare_factor": "exec.cache.prepare_factor_s",
    "exec.fused.panels": "exec.fused.panels_s",
    "core.solver.first_solve_other": "core.solver.first_solve_other_s",
    "core.sim.solve": "core.sim.wall_s",
}
#: The same for layers reported in milliseconds.
SPAN_MILLIS = {
    "exec.fused.forward": "exec.fused.forward_ms",
    "exec.fused.backward": "exec.fused.backward_ms",
    "sparse.ops.residual": "sparse.ops.residual_ms",
    "numeric.kernels.solve_lower": "numeric.kernels.solve_lower_ms",
    "numeric.kernels.rect_apply": "numeric.kernels.rect_apply_ms",
    "numeric.kernels.solve_lower_t": "numeric.kernels.solve_lower_t_ms",
    "numeric.kernels.rect_apply_t": "numeric.kernels.rect_apply_t_ms",
    "numeric.trisolve.forward": "numeric.trisolve.forward_ms",
    "numeric.trisolve.backward": "numeric.trisolve.backward_ms",
    "exec.engine.solve_w1": "exec.engine.solve_w1_ms",
    "exec.engine.solve_wmax": "exec.engine.solve_wmax_ms",
    "baseline.scipy.solve": "baseline.scipy.solve_ms",
}

#: Fraction of ``--seconds`` the traced warm-solve loop runs for.
WARM_SHARE = 0.35
SIM_PROCESSORS = 16


class LayerProbe:
    """One traced run of one workload."""

    def __init__(self, workload: Workload, seed: int, sizing: Sizing):
        self.workload = workload
        self.seed = seed
        self.sizing = sizing
        self.tracer = Tracer()
        self.ops = itertools.count(1)
        self.m: dict[str, dict] = {
            name: scalar(0.0, unit, n=0) for name, unit in PER_LAYER_UNITS.items()}
        self.reps = 2 if sizing.smoke else 3
        self.bare_ms = 0.0  # untraced warm solve() median, set by warm_solves()

    def count(self, name: str, value: float) -> None:
        self.m[name] = scalar(float(value), PER_LAYER_UNITS[name])

    # ------------------------------------------------------------ set-up
    def staged_prepare(self):
        """What ``prepare()`` does, one span per stage, on cold exec caches."""
        span = self.tracer.span
        clear_exec_caches()
        gc.collect()
        op = next(self.ops)
        with span("sparse.generators.build", op):
            a = matrix_of(self.workload, self.sizing)
        solver = ParallelSparseSolver(a, verify=self.workload.verify)
        with span("ordering.order", op):  # stand-alone: analyze() orders again inside
            order(a, solver.ordering)
        with span("core.solver.prepare", op):
            with span("symbolic.analyze"):
                sym = analyze(a, method=solver.ordering, relax=solver.relax)
            with span("numeric.supernodal.cholesky"):
                factor = cholesky_supernodal(sym)
            with span("mapping.subtree_subcube"):
                assign = subtree_to_subcube(sym.stree, solver.p)
            solver.symbolic, solver.factor, solver.assign = sym, factor, assign
            if solver.verify:
                with span("verify.invariants"):
                    solver.verify_prepared().raise_if_errors(
                        "solver structural verification failed")
        return solver

    def staged_first_solve(self, solver: ParallelSparseSolver, checker: Checker) -> None:
        """The lazy work of the first fused ``solve()``, stage by stage."""
        span = self.tracer.span
        stree, factor = solver.symbolic.stree, solver.factor
        op = next(self.ops)
        with span("core.solver.first_solve", op):
            with span("exec.plan.build"):
                plan = plan_for(stree)
            with span("exec.plan.compile"):
                program_for(stree)
            if solver.verify:
                # includes certifying the plan, which certify_level_program redoes
                with span("verify.schedule.certify_program"):
                    fused_certificate_for(stree)
            with span("exec.cache.prepare_factor"):
                prepare_factor(factor)
            with span("exec.fused.panels"):
                fused_panels_for(factor)
            with span("core.solver.first_solve_other"):
                x, _ = solver.solve(checker.rhs[0], backend="fused")
        checker.ok(0, x)
        if solver.verify:
            with span("verify.schedule.certify_plan", next(self.ops)):  # stand-alone
                certificate_for(stree)
        stats = plan.stats()
        self.count("exec.plan.ntasks", stats["ntasks"])
        self.count("exec.plan.nlevels", stats["nlevels"])
        self.count("symbolic.nsuper", stree.nsuper)
        self.count("symbolic.factor_nnz", solver.symbolic.factor_nnz)
        self.count("numeric.factor_flops", stree.factor_flops())
        self.count("numeric.factor_bytes", sum(b.nbytes for b in factor.blocks))
        self.count("numeric.solve_flops_per_rhs", 2 * stree.solve_flops(1))

    # ------------------------------------------------------------ warm solve
    def warm_solves(self, solver: ParallelSparseSolver, checker: Checker) -> None:
        """Bare ``solve()``, the same inside a span, and its decomposition, interleaved."""
        span = self.tracer.span
        sym, factor, a = solver.symbolic, solver.factor, solver.a
        program = program_for(sym.stree)
        bare: list[float] = []
        spanned: list[float] = []
        misses = _cache_misses()
        until = time.perf_counter() + WARM_SHARE * self.sizing.seconds
        i = 0
        while i < 2 * self.reps or time.perf_counter() < until:
            k = i % POOL_SIZE
            b = checker.rhs[k]
            for traced in ((False, True), (True, False))[i % 2]:  # alternate which goes first
                if traced:
                    t0 = time.perf_counter()
                    with span("core.solver.solve", next(self.ops)):
                        solver.solve(b, backend="fused", check=False)
                    spanned.append(time.perf_counter() - t0)
                else:
                    dt, (x, _) = timed(solver.solve, b, backend="fused", check=False)
                    if checker.ok(k, x):
                        bare.append(dt)
            bmat = b[:, None] if b.ndim == 1 else b
            with span("core.solver.solve.decomposed", next(self.ops)):
                with span("ordering.permutation.apply"):
                    b_perm = sym.perm.apply_to_vector(bmat)
                with span("exec.fused.forward"):
                    y = forward_fused(factor, b_perm, program=program)
                with span("exec.fused.backward"):
                    x_perm = backward_fused(factor, y, program=program)
                with span("ordering.permutation.unapply"):
                    x = sym.perm.unapply_to_vector(x_perm)
            checker.ok(k, x[:, 0] if b.ndim == 1 else x)
            with span("sparse.ops.residual", next(self.ops)):
                relative_residual(a, x, bmat)
            i += 1
        self.count("exec.cache.misses_steady", _cache_misses() - misses)
        self.bare_ms = median(bare) * 1e3
        self.m["trace.overhead_share"] = scalar(
            median(spanned) / median(bare) - 1.0, "share", len(bare))

    # ------------------------------------------------------------ kernels
    def kernel_replay(self, solver: ParallelSparseSolver) -> None:
        """The canonical kernels over every width>1 supernode at the workload's NRHS."""
        span = self.tracer.span
        m = self.workload.nrhs
        prep = prepare_factor(solver.factor)
        wide = [(d, r) for d, r in zip(prep.diag, prep.rect) if d.shape[0] > 1]
        rng = seeded(self.seed, 3)
        tops = [rng.standard_normal((d.shape[0], m)) for d, _ in wide]
        below = [rng.standard_normal((r.shape[0], m)) for _, r in wide]
        rows = max((max(r.shape) for _, r in wide), default=0)
        out, tmp = np.empty((rows, m)), np.empty((rows, m))
        rects = [(r, top, xg) for (_, r), top, xg in zip(wide, tops, below) if r.shape[0]]
        for _ in range(2 * self.reps):
            with span("numeric.kernels.replay", next(self.ops)):
                with span("numeric.kernels.solve_lower"):
                    for (d, _), top in zip(wide, tops):
                        solve_lower(d, top)
                with span("numeric.kernels.rect_apply"):
                    for r, top, _ in rects:
                        rect_apply(r, top, out=out[:r.shape[0]], tmp=tmp[:r.shape[0]])
                with span("numeric.kernels.solve_lower_t"):
                    for (d, _), top in zip(wide, tops):
                        solve_lower_t(d, top)
                with span("numeric.kernels.rect_apply_t"):
                    for r, _, xg in rects:
                        rect_apply_t(r, xg, out=out[:r.shape[1]], tmp=tmp[:r.shape[0]])
        self.count("numeric.kernels.rect_calls", 2 * len(rects))
        self.count("numeric.kernels.rect_flops",
                   sum(2 * 2 * r.shape[0] * r.shape[1] * m for r, _, _ in rects))
        self.count("numeric.kernels.trsm_flops",
                   sum(2 * d.shape[0] ** 2 * m for d, _ in wide))

    # ------------------------------------------------------------ alternatives
    def alternatives(self, solver: ParallelSparseSolver, checker: Checker) -> None:
        """Serial walker, threaded engine and scipy on one RHS, checked against fused."""
        span = self.tracer.span
        sym, factor = solver.symbolic, solver.factor
        b = checker.rhs[0]
        b_perm = sym.perm.apply_to_vector(b[:, None] if b.ndim == 1 else b)
        x_fused = solve_fused(factor, b_perm)
        plan = plan_for(sym.stree)
        wmax = min(os.cpu_count() or 1, default_workers())
        self.count("exec.engine.workers_max", wmax)
        lower = factor.to_lower_csc(sym.l_indptr, sym.l_indices).to_scipy().tocsr()
        upper = lower.T.tocsr()

        def same(x: np.ndarray, bitwise: bool = True) -> None:
            checker.record(bool(
                np.array_equal(x, x_fused) if bitwise else
                np.linalg.norm(x - x_fused) <= 1e-9 * np.linalg.norm(x_fused)))

        for _ in range(self.reps):
            op = next(self.ops)
            with span("numeric.trisolve.forward", op):
                y = forward_supernodal(factor, b_perm)
            with span("numeric.trisolve.backward", op):
                x = backward_supernodal(factor, y)
            same(x)
            with span("exec.engine.solve_w1", op):
                x = solve_exec(factor, b_perm, workers=1, plan=plan)
            same(x)
            with span("exec.engine.solve_wmax", op):
                x = solve_exec(factor, b_perm, workers=wmax, plan=plan)
            same(x)
            with span("baseline.scipy.solve", op):
                x = spsolve_triangular(
                    upper, spsolve_triangular(lower, b_perm, lower=True), lower=False)
            same(x, bitwise=False)

    # ------------------------------------------------------------ simulator
    def sim_fidelity(self, solver: ParallelSparseSolver, checker: Checker) -> None:
        """One simulated FBsolve makespan (p=16, NRHS=1) that must repeat exactly."""
        sim = ParallelSparseSolver(solver.a, p=SIM_PROCESSORS, verify=False)
        sim.symbolic, sim.factor = solver.symbolic, solver.factor
        sim.assign = subtree_to_subcube(solver.symbolic.stree, SIM_PROCESSORS)
        b = seeded(self.seed, 4).standard_normal(solver.a.n)
        makespans = []
        for _ in range(2):
            with self.tracer.span("core.sim.solve", next(self.ops)):
                _, report = sim.solve(b, backend="sim", check=False)
            makespans.append(report.fbsolve_seconds)
        checker.record(makespans[0] == makespans[1])
        self.count("core.sim.fbsolve_makespan_s", makespans[0])

    # ------------------------------------------------------------ serving
    def serve(self, solver: ParallelSparseSolver) -> Checker:
        """Open loop, closed loop and a drain, with the service's own batch records."""
        checker = serve_checker(solver, self.seed)
        misses = _cache_misses()
        service = SolveService()
        with self.tracer.span("serve.service.register", next(self.ops)):
            service.register("default", solver)
        try:
            share = self.sizing.seconds / 3.0
            phase_a = open_loop(service, checker, self.seed, share)
            gc.collect()
            phase_b = closed_loop(service, checker, share)
            tail = [Request(index=i % POOL_SIZE, due=time.perf_counter())
                    for i in range(CLOSED_OUTSTANDING)]
            for req in tail:
                req.future = service.submit(checker.rhs[req.index])
        finally:
            t_close, _ = timed(service.close)
        for req in tail:
            checker.ok(req.index, req.future.result(timeout=FUTURE_TIMEOUT))
        self.count("serve.close_drain_s", t_close)
        self.count("exec.cache.misses_steady",
                   self.m["exec.cache.misses_steady"]["value"] + _cache_misses() - misses)
        self._serve_spans(phase_a)
        self._serve_spans(phase_b)
        self._serve_metrics(phase_a, phase_b, service.report())
        return checker

    def _serve_spans(self, phase: ServePhase) -> None:
        for req in phase.requests:
            op = next(self.ops)
            parent = self.tracer.add("serve.request", req.due, req.done, op=op)
            self.tracer.add("serve.service.submit", req.sent, req.accepted,
                            parent=parent, op=op)

    def _serve_metrics(self, a: ServePhase, b: ServePhase, report) -> None:
        m = self.m
        good = [r for r in a.requests if r.good]
        m["serve.service.submit_us_p50"] = summarize(
            [(r.accepted - r.sent) * 1e6 for r in a.requests], "us")
        lateness = [(r.sent - r.due) * 1e3 for r in a.requests]
        m["loadgen.lateness_ms_p50"] = summarize(lateness, "ms", 50)
        m["loadgen.lateness_ms_p99"] = summarize(lateness, "ms", 99)
        on_time = sum(r.latency <= SLO_SECONDS for r in good)
        m["serve.slo_miss_share"] = scalar(1.0 - on_time / a.scheduled, "share", a.scheduled)

        served = sum(rec.requests for rec in a.batches)
        wait = sum(rec.wait_mean * rec.requests for rec in a.batches) / served
        busy = sum(rec.exec_seconds * rec.requests for rec in a.batches) / served
        latency = sum(r.latency for r in good) / len(good)
        self.count("serve.batcher.queue_wait_ms_mean", wait * 1e3)
        self.count("serve.batcher.queue_wait_ms_max",
                   max(rec.wait_max for rec in a.batches) * 1e3)
        self.count("serve.service.overhead_ms_per_batch", (latency - wait - busy) * 1e3)
        self.count("serve.batches.open", len(a.batches))
        for tag, phase in (("open", a), ("closed", b)):
            columns = sum(rec.columns for rec in phase.batches)
            seconds = sum(rec.exec_seconds for rec in phase.batches)
            self.count(f"serve.batch_width_mean.{tag}", columns / len(phase.batches))
            self.count(f"serve.exec_busy_share.{tag}", seconds / phase.wall)
            if tag == "closed":
                self.count("serve.exec_ms_per_column.closed", seconds / columns * 1e3)
        for trigger in ("full", "deadline", "idle", "drain"):
            self.count(f"serve.trigger.{trigger}", report.trigger_counts.get(trigger, 0))
        self.count("serve.rejected", report.rejected)
        self.count("serve.failed", report.failed)
        self.count("serve.cancelled", report.cancelled)

    # ------------------------------------------------------------ assembly
    def span_metrics(self) -> None:
        """Median self time per span name, plus the derived decomposition."""
        m = self.m
        by_name = self.tracer.self_by_name()
        for table, scale, unit in ((SPAN_SECONDS, 1.0, "s"), (SPAN_MILLIS, 1e3, "ms")):
            for span_name, metric in table.items():
                if span_name in by_name:
                    m[metric] = summarize([t * scale for t in by_name[span_name]], unit)
        value = lambda name: m[name]["value"]
        permute = [(u + v) * 1e3 for u, v in zip(by_name["ordering.permutation.apply"],
                                                 by_name["ordering.permutation.unapply"])]
        m["ordering.permutation.apply_ms"] = summarize(permute, "ms")
        self.count("symbolic.self_s", value("symbolic.analyze_s") - value("ordering.order_s"))
        sweeps = value("exec.fused.forward_ms") + value("exec.fused.backward_ms")
        self.count("core.solver.overhead_ms",
                   self.bare_ms - sweeps - value("ordering.permutation.apply_ms"))
        self.count("exec.fused.level_overhead_ms", sweeps - sum(
            value(f"numeric.kernels.{k}_ms")
            for k in ("solve_lower", "rect_apply", "solve_lower_t", "rect_apply_t")))
        flops = self.workload.nrhs * value("numeric.solve_flops_per_rhs")
        self.count("exec.fused.mflops", flops / (sweeps * 1e-3) / 1e6)

    def run(self) -> dict:
        for _ in range(self.sizing.builds):
            solver = self.staged_prepare()
        checker = new_checker(self.workload, self.seed, self.sizing)
        self.staged_first_solve(solver, checker)
        gc.collect()
        self.warm_solves(solver, checker)
        self.kernel_replay(solver)
        self.alternatives(solver, checker)
        self.sim_fidelity(solver, checker)
        checker.bitwise_sample(solver)
        attempted, failed = checker.attempted, checker.failed
        if self.workload.kind == "serve":
            served = self.serve(solver)
            attempted += served.attempted
            failed += served.failed
        arena = prepare_factor(solver.factor).arena.stats()
        self.count("exec.arena.built", arena["built"])
        self.count("exec.arena.leases", arena["leases"])
        self.span_metrics()
        self.m["failed_share"] = scalar(failed / attempted, "share", attempted)
        return {"metrics": self.m, "attempted": attempted, "failed": failed,
                "chrome_trace": self.tracer.chrome_trace()}


def _cache_misses() -> int:
    return sum(v for k, v in exec_cache_stats().items() if k.endswith("_misses"))


def run_traced(workload: Workload, seed: int, sizing: Sizing) -> dict:
    return LayerProbe(workload, seed, sizing).run()
