"""The dependency-counted thread-pool execution of the triangular solves.

Not a product backend: nothing selects it (``ParallelSparseSolver.solve``
runs ``sim | serial | fused``, the serving layer always runs ``fused``).
:func:`solve_exec` stays as what ``benchmarks/spine`` and the tests use
it for — a measured baseline (``exec.engine.*``: slower than the fused
level program at every worker count on every workload) and a second,
differently scheduled bitwise reference — until a ``benchmark`` PR drops
those probes and this module can be deleted whole.

* the cached :class:`~repro.exec.plan.ExecPlan` aggregates cheap subtrees
  into sequential tasks and leaves the expensive top of the tree as
  singleton tasks (Section 2's subtree/subcube split, reinterpreted for a
  thread pool);
* tasks are dispatched to a :class:`~concurrent.futures.ThreadPoolExecutor`
  by dependency counting on the task tree — a forward task becomes ready
  when its child tasks finish, a backward task when its parent does;
* all arithmetic is batched over the full ``(n, nrhs)`` right-hand-side
  block, and child contributions are reduced in ascending child order
  inside the consuming node — so results are **bitwise identical** for
  every worker count and every thread interleaving.

Forward elimination passes contributions up the assembly tree exactly
like the multifrontal factorization passes update matrices: node ``s``
computes ``solved = inv_s @ acc[:t]`` (its diagonal block's inverse) and
``contrib[s] = acc[t:] - R_s @ solved`` over its below-rows, and the
parent scatters it through plan-precomputed indices.  Backward
substitution needs no reduction at all: node ``s`` gathers already-solved
ancestor entries ``x[below]`` and applies its transposed inverse.

Accumulator and contribution blocks live in a flat
:class:`~repro.exec.arena.EngineWorkspace` leased from the prepared
factor's arena — per-node slices are disjoint, so tasks stay
synchronisation-free.  All dense math goes through the canonical kernels
in :mod:`repro.numeric.kernels`, which is what keeps the engine bitwise
identical to the serial walker and the fused level program.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import nullcontext
from typing import Callable, Sequence

import numpy as np

from repro.exec.arena import build_engine_workspace
from repro.exec.cache import PreparedFactor, plan_for, prepare_factor
from repro.exec.plan import ExecPlan
from repro.numeric.kernels import rect_apply, rect_apply_t, tri_apply, tri_apply_t
from repro.numeric.supernodal import SupernodalFactor
from repro.numeric.trisolve import as_rhs_matrix
from repro.util.validation import require

#: Upper bound on the default worker count when ``workers=None``.
MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """The worker count used when callers pass ``workers=None``.

    One thread per core, capped at :data:`MAX_DEFAULT_WORKERS`, never
    below 1 (the benchmark harness reads it for its widest engine probe).
    """
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


def resolve_workers(workers: int | None) -> int:
    """Validate and default the worker count.

    ``None`` means "use the machine" (:func:`default_workers`).  Anything
    below 1 (or non-integral) is rejected with :class:`ValueError` — a
    pool of zero workers would accept tasks and never run them.
    """
    if workers is None:
        return default_workers()
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    require(int(workers) >= 1, f"workers must be >= 1, got {workers}")
    return int(workers)


def _run_task_graph(
    ntasks: int,
    ndeps: Sequence[int],
    dependents: Sequence[Sequence[int]],
    body: Callable[[int], None],
    pool: ThreadPoolExecutor | None,
) -> None:
    """Run ``body(i)`` for every task, honouring the dependency counts.

    ``pool is None`` runs inline in deterministic topological order.
    Otherwise tasks are submitted to *pool* — owned by the caller so one
    executor serves both sweeps of a solve.  A failing task stops further
    submission, the already-running tasks drain, and the failure with the
    smallest task index is re-raised — the pool can never deadlock on an
    exception because nothing waits on a task that was never submitted.
    """
    if ntasks == 0:
        return
    counts = [int(c) for c in ndeps]
    ready = [i for i in range(ntasks) if counts[i] == 0]
    require(bool(ready), "task graph has no ready tasks — dependency cycle")

    executed = 0
    if pool is None:
        queue = deque(ready)
        while queue:
            i = queue.popleft()
            body(i)
            executed += 1
            for d in dependents[i]:
                counts[d] -= 1
                if counts[d] == 0:
                    queue.append(d)
        require(executed == ntasks,
                "task graph stalled before completing — dependency cycle")
        return

    failures: list[tuple[int, BaseException]] = []
    pending = {pool.submit(body, i): i for i in ready}
    while pending:
        done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
        for fut in done:
            i = pending.pop(fut)
            exc = fut.exception()
            if exc is not None:
                failures.append((i, exc))
                continue
            executed += 1
            if failures:
                continue  # drain only; schedule nothing downstream
            for d in dependents[i]:
                counts[d] -= 1
                if counts[d] == 0:
                    pending[pool.submit(body, d)] = d
    if failures:
        failures.sort(key=lambda pair: pair[0])
        raise failures[0][1]
    require(executed == ntasks,
            "task graph stalled before completing — dependency cycle")


# ------------------------------------------------------------------ sweeps
def _forward_mat(
    plan: ExecPlan,
    prep: PreparedFactor,
    y: np.ndarray,
    pool: ThreadPoolExecutor | None,
) -> np.ndarray:
    """In-place forward elimination ``L y = b`` over the (n, m) block."""
    m = y.shape[1]
    steps = plan.steps
    inv, rect = prep.inv, prep.rect

    with prep.arena.lease(plan, ("engine", m), lambda: build_engine_workspace(plan, m)) as ws:
        acc_off, con_off = ws.acc_off, ws.contrib_off

        def run_task(ti: int) -> None:
            for s in plan.tasks[ti].nodes:
                st = steps[s]
                t = st.t
                acc = ws.acc[acc_off[s]:acc_off[s + 1]]
                acc[t:] = 0.0
                np.add(y[st.col_lo:st.col_hi], 0.0, out=acc[:t])  # zero start
                for c, idx in zip(st.children, st.child_scatter):
                    c0, c1 = con_off[c], con_off[c + 1]
                    if c1 > c0:
                        acc[idx] += ws.contrib[c0:c1]
                solved = tri_apply(inv[s], acc[:t])
                y[st.col_lo:st.col_hi] = solved
                if st.n > t:
                    np.subtract(acc[t:], rect_apply(rect[s], solved),
                                out=ws.contrib[con_off[s]:con_off[s + 1]])

        ndeps, dependents = plan.forward_deps()
        _run_task_graph(plan.ntasks, ndeps, dependents, run_task, pool)
    return y


def _backward_mat(
    plan: ExecPlan,
    prep: PreparedFactor,
    x: np.ndarray,
    pool: ThreadPoolExecutor | None,
) -> np.ndarray:
    """In-place backward substitution ``L^T x = y`` over the (n, m) block."""
    steps = plan.steps
    inv, rect = prep.inv, prep.rect

    def run_task(ti: int) -> None:
        for s in reversed(plan.tasks[ti].nodes):
            st = steps[s]
            top = x[st.col_lo:st.col_hi]
            if st.n > st.t:
                top = top - rect_apply_t(rect[s], x[st.below])
            x[st.col_lo:st.col_hi] = tri_apply_t(inv[s], top)

    ndeps, dependents = plan.backward_deps()
    _run_task_graph(plan.ntasks, ndeps, dependents, run_task, pool)
    return x


# ------------------------------------------------------------------ public
def solve_exec(
    factor: SupernodalFactor,
    b: np.ndarray,
    *,
    workers: int | None = None,
    plan: ExecPlan | None = None,
) -> np.ndarray:
    """Full ``A x = b`` solve (forward then backward) on the engine.

    One :class:`~concurrent.futures.ThreadPoolExecutor` serves both
    sweeps — the pool is created once per call, not once per sweep; one
    worker runs inline without a pool.  Identical numerics for every
    ``workers`` value.
    """
    workers_n = resolve_workers(workers)
    plan = plan if plan is not None else plan_for(factor.stree)
    prep = prepare_factor(factor)
    x, squeeze = as_rhs_matrix(b, factor.n)
    with (ThreadPoolExecutor(max_workers=workers_n) if workers_n > 1
          else nullcontext()) as pool:
        _forward_mat(plan, prep, x, pool)
        _backward_mat(plan, prep, x, pool)
    return x[:, 0] if squeeze else x
