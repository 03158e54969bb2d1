"""The request-coalescing solve service.

:class:`SolveService` is the serving layer over the cached fused level
program: register a factorized system once, then :meth:`submit`
single- or few-column solve requests from any thread and receive
futures.  A dispatcher packs pending requests for the same factor into
one multi-column batch (:class:`~repro.serve.batcher.Coalescer`) and
runs it as a single fused solve — so a stream of width-1 requests is
served at multi-RHS throughput while every caller still sees an
ordinary single-solve answer.

Coalescing is *observably transparent*: the canonical kernels are
column-slice invariant (:mod:`repro.numeric.kernels`), so column ``i``
of a packed batch is bitwise identical to the standalone NRHS=1 solve
of the same right-hand side.  Batching changes when the answer arrives,
never what it is.

Two execution modes share all of the above:

* **threaded** (production) — a real clock drives a dispatcher thread
  that sleeps on the coalescer's next deadline and wakes on arrivals;
* **manual-pump** (deterministic) — a :class:`~repro.serve.clock.FakeClock`
  cannot put a thread to sleep, so the service starts none; the test
  advances the clock and calls :meth:`pump`/:meth:`drain` itself, making
  every flush decision reproducible to the exact simulated instant.

Registration reuses the weakref caches of :mod:`repro.exec.cache`
(plans, level programs, prepared factors, packed panels), so the
service adds no per-request preparation cost on top of a cached
``solve_fused``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exec import fused_panels_for, prepare_factor, program_for, solve_fused
from repro.numeric.supernodal import SupernodalFactor
from repro.numeric.trisolve import as_rhs_matrix
from repro.serve.batcher import Batch, Coalescer, SolveRequest
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.report import BatchRecord, ServeReport


@dataclass(frozen=True)
class _Entry:
    """One registered system: its size and a packed-block solve function."""

    name: str
    n: int
    solve: Callable[[np.ndarray], np.ndarray]


class SolveService:
    """Thread-safe, request-coalescing front end over the fused level program.

    Parameters
    ----------
    max_batch, max_wait, idle_wait, max_queue :
        The coalescer's flush policy and backpressure bound (see
        :class:`~repro.serve.batcher.Coalescer`).
    clock :
        The time source.  A real clock (default) starts a dispatcher
        thread; a clock with ``drives_threads=False`` (the fake clock)
        selects manual-pump mode.
    """

    def __init__(
        self,
        *,
        max_batch: int = 16,
        max_wait: float = 2e-3,
        idle_wait: float | None = 0.5e-3,
        max_queue: int | None = None,
        clock: Clock | None = None,
    ):
        self._clock = clock if clock is not None else MonotonicClock()
        self._cond = threading.Condition()
        self._coalescer = Coalescer(
            clock=self._clock,
            max_batch=max_batch,
            max_wait=max_wait,
            idle_wait=idle_wait,
            max_queue=max_queue,
        )
        self._entries: dict[str, _Entry] = {}
        self._report = ServeReport()
        self._seq = 0
        self._stopping = False
        self._closed = False
        self.manual = not self._clock.drives_threads
        self._thread: threading.Thread | None = None
        if not self.manual:
            self._thread = threading.Thread(
                target=self._loop, name="repro-solve-service", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, *, timeout: float | None = 30.0) -> None:
        """Stop accepting requests, drain every pending one, stop the thread.

        Draining answers — it never abandons: each remaining request is
        flushed in a ``trigger="drain"`` batch and its future resolved.
        Idempotent; safe to call from any thread.
        """
        with self._cond:
            if self._closed:
                return
            self._stopping = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():  # pragma: no cover - defensive
                raise RuntimeError("solve service dispatcher failed to stop")
        else:
            self.drain()
        with self._cond:
            self._closed = True

    # ------------------------------------------------------------ registry
    def register(self, name: str, target) -> str:
        """Register a factorized system under *name* and warm its caches.

        *target* is either a prepared
        :class:`~repro.core.solver.ParallelSparseSolver` (requests and
        answers are in the original ordering, exactly like
        ``solver.solve``) or a bare
        :class:`~repro.numeric.supernodal.SupernodalFactor` (requests
        are in factor ordering).  Returns *name*, the key to submit
        against.
        """
        from repro.core.solver import ParallelSparseSolver

        if isinstance(target, ParallelSparseSolver):
            sym, factor, _ = target._require_prepared()
            perm, certify = sym.perm, target.verify
        elif isinstance(target, SupernodalFactor):
            factor, perm, certify = target, None, False
        else:
            raise TypeError(
                "register() takes a prepared ParallelSparseSolver or a "
                f"SupernodalFactor, got {type(target).__name__}"
            )
        prepare_factor(factor)  # validates the diagonal once, at registration
        program = program_for(factor.stree, certify=certify)
        fused_panels_for(factor)
        if perm is None:
            solve = lambda bmat: solve_fused(factor, bmat, program=program)
        else:
            solve = lambda bmat: perm.unapply_to_vector(
                solve_fused(factor, perm.apply_to_vector(bmat), program=program)
            )
        with self._cond:
            if self._stopping or self._closed:
                raise RuntimeError("cannot register on a closed service")
            if name in self._entries:
                raise ValueError(f"key {name!r} is already registered")
            self._entries[name] = _Entry(name=name, n=factor.n, solve=solve)
        return name

    @property
    def keys(self) -> tuple[str, ...]:
        with self._cond:
            return tuple(self._entries)

    # ------------------------------------------------------------ submit
    def submit(self, b: np.ndarray, *, key: str = "default") -> Future:
        """Queue one solve request; returns a future for its solution.

        *b* is a length-``n`` vector or an ``(n, w)`` block with
        ``w <= max_batch``; the future resolves to the same shape.  The
        result is bitwise identical to the standalone fused solve of
        *b*, whatever batch it lands in.  Raises
        :class:`~repro.serve.batcher.QueueFullError` under backpressure,
        :class:`RuntimeError` once the service is closing, and — before
        anything is queued — :class:`TypeError` for complex input and
        :class:`ValueError` for a 0-d or wrongly sized one.
        """
        with self._cond:
            entry = self._entries.get(key)
            if entry is None:
                raise KeyError(
                    f"no system registered under {key!r} "
                    f"(registered: {sorted(self._entries)})"
                )
        rhs, squeeze = as_rhs_matrix(b, entry.n)
        fut: Future = Future()
        with self._cond:
            if self._stopping or self._closed:
                raise RuntimeError("solve service is closed to new requests")
            self._seq += 1
            request = SolveRequest(
                key=key, rhs=rhs, squeeze=squeeze, future=fut, seq=self._seq
            )
            self._coalescer.offer(request)  # may raise QueueFullError
            self._report.submitted += 1
            self._report.peak_queue_columns = max(
                self._report.peak_queue_columns, self._coalescer.peak_columns
            )
            self._cond.notify_all()
        return fut

    # ------------------------------------------------------------ pumping
    def pump(self) -> Batch | None:
        """Manual mode: form and execute the next due batch, if any.

        Returns the executed batch (its futures are resolved on return)
        or ``None`` when no flush rule has fired at the fake clock's
        current instant.
        """
        self._require_manual("pump")
        with self._cond:
            batch = self._coalescer.take_ready()
        if batch is not None:
            self._execute(batch)
        return batch

    def pump_until_idle(self) -> int:
        """Manual mode: pump every batch due *now*; returns how many ran."""
        count = 0
        while self.pump() is not None:
            count += 1
        return count

    def drain(self) -> int:
        """Manual mode: flush and execute everything pending, deadlines or not."""
        self._require_manual("drain")
        count = 0
        while True:
            with self._cond:
                batch = self._coalescer.take_drain()
            if batch is None:
                return count
            self._execute(batch)
            count += 1

    def _require_manual(self, what: str) -> None:
        if self._thread is not None:
            raise RuntimeError(
                f"{what}() is for manual-pump services (fake clock); this "
                "service runs a dispatcher thread"
            )

    # ------------------------------------------------------------ dispatcher
    def _loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    batch = self._coalescer.take_ready()
                    if batch is not None:
                        break
                    if self._stopping:
                        batch = self._coalescer.take_drain()
                        if batch is None:
                            return
                        break
                    deadline = self._coalescer.next_deadline()
                    timeout = (
                        None
                        if deadline is None
                        else max(0.0, deadline - self._clock.now())
                    )
                    self._clock.wait(self._cond, timeout)
            self._execute(batch)

    # ------------------------------------------------------------ execution
    def _execute(self, batch: Batch) -> None:
        """Solve one packed batch and resolve its futures (lock not held)."""
        entry = self._entries[batch.key]
        packed = np.concatenate([r.rhs for r in batch.requests], axis=1)
        t0 = time.perf_counter()
        error: Exception | None = None
        try:
            solution = entry.solve(packed)
        except Exception as exc:  # interrupts and exits propagate to the pumper
            error = exc
        exec_seconds = time.perf_counter() - t0

        completed = failed = cancelled = 0
        col = 0
        for request in batch.requests:
            if not request.future.set_running_or_notify_cancel():
                cancelled += 1
                col += request.width
                continue
            if error is not None:
                request.future.set_exception(error)
                failed += 1
                continue
            block = solution[:, col:col + request.width].copy()
            col += request.width
            request.future.set_result(block[:, 0] if request.squeeze else block)
            completed += 1

        waits = batch.waits
        record = BatchRecord(
            key=batch.key,
            requests=len(batch.requests),
            columns=batch.columns,
            trigger=batch.trigger,
            wait_max=max(waits),
            wait_mean=sum(waits) / len(waits),
            exec_seconds=exec_seconds,
        )
        with self._cond:
            self._report.batches.append(record)
            self._report.completed += completed
            self._report.failed += failed
            self._report.cancelled += cancelled
            self._report.rejected = self._coalescer.rejected
            self._report.peak_queue_columns = max(
                self._report.peak_queue_columns, self._coalescer.peak_columns
            )

    # ------------------------------------------------------------ stats
    def report(self) -> ServeReport:
        """A consistent snapshot of the service's lifetime statistics."""
        with self._cond:
            self._report.rejected = self._coalescer.rejected
            self._report.peak_queue_columns = max(
                self._report.peak_queue_columns, self._coalescer.peak_columns
            )
            return self._report.snapshot()

    @property
    def pending_columns(self) -> int:
        with self._cond:
            return self._coalescer.pending_columns
