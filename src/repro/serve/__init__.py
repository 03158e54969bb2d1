"""Request-coalescing serving layer over the cached fused level program.

The paper's multi-RHS economics (Figures 7–8) say triangular-solve
throughput comes from width: one ``(n, 16)`` solve costs far less than
sixteen ``(n, 1)`` solves.  This package applies that argument to the
ROADMAP's serving scenario — a stream of independent single-RHS
requests — by coalescing pending requests for the same cached factor
into one fused multi-column solve, transparently: the canonical kernels
are column-slice invariant, so every caller's answer is bitwise
identical to a standalone solve of their request.

Public surface:

* :class:`SolveService` — register factors, ``submit()`` requests from
  any thread, receive futures; batches flush on ``max_batch`` fill, a
  ``max_wait`` deadline, an idle arrival gap, or shutdown drain, with
  bounded-queue backpressure.
* :class:`Coalescer` / :class:`Batch` / :class:`SolveRequest` — the
  deterministic batching state machine.
* :class:`Clock` / :class:`MonotonicClock` / :class:`FakeClock` — the
  injectable time source; the fake clock runs the service in
  manual-pump mode for sleep-free, flake-free tests.
* :class:`ServeReport` / :class:`BatchRecord` — per-batch and aggregate
  serving statistics.
* :exc:`QueueFullError` — the backpressure signal.

The service is its own context manager and always executes batches on
the fused level program (the one execution the benchmark's serving
workload has ever run; every other one returns the same bits, slower)::

    with SolveService(max_batch=16) as svc:
        svc.register("default", solver)   # a prepared ParallelSparseSolver
        x = svc.submit(b).result()        # b: (n,) or (n, w)

``python -m repro serve-demo`` exercises the whole stack from the
command line.
"""

from repro.serve.batcher import Batch, Coalescer, QueueFullError, SolveRequest
from repro.serve.clock import Clock, FakeClock, MonotonicClock
from repro.serve.report import BatchRecord, ServeReport
from repro.serve.service import SolveService

__all__ = [
    "Batch",
    "BatchRecord",
    "Clock",
    "Coalescer",
    "FakeClock",
    "MonotonicClock",
    "QueueFullError",
    "ServeReport",
    "SolveRequest",
    "SolveService",
]
