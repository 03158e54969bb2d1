"""The request coalescer: a deterministic batching state machine.

A stream of independent solve requests against the same cached factor is
the repo's "heavy traffic" workload, and the paper's Figures 7–8 argument
says its throughput lives or dies on NRHS width: one 16-column fused
solve costs far less than sixteen 1-column solves, because every
per-level gather/scatter/divide is paid once instead of sixteen times.
The :class:`Coalescer` performs that aggregation online — it queues
pending requests per factor and decides, from nothing but the injected
clock, when a batch should form:

``full``
    a factor's pending columns reach ``max_batch`` — flush immediately,
    taking whole requests (a request's columns always stay in one batch)
    up to ``max_batch`` columns;
``deadline``
    the oldest pending request has waited ``max_wait`` — flush whatever
    is there, so latency under light load is bounded;
``idle``
    no new request has arrived for ``idle_wait`` (< ``max_wait``) — the
    stream has gone quiet, so waiting longer cannot widen the batch and
    would only add latency;
``drain``
    shutdown — flush unconditionally.

Backpressure is a bound on total queued *columns* across all factors:
:meth:`Coalescer.offer` raises :class:`QueueFullError` instead of
queueing without limit, and the caller answers the client immediately.

The coalescer owns no lock and starts no thread: it is a plain state
machine whose every transition happens inside a caller-held lock
(:class:`repro.serve.service.SolveService` serializes access under its
condition variable).  That, plus the injectable clock, is what makes the
flush policy unit-testable to the exact simulated microsecond.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.serve.clock import Clock


class QueueFullError(RuntimeError):
    """Raised by :meth:`Coalescer.offer` when the column queue is full."""


@dataclass
class SolveRequest:
    """One queued solve: a right-hand-side block and the future awaiting it.

    ``rhs`` is the caller's ``(n, width)`` float64 copy; ``squeeze``
    records whether the caller passed a plain vector and should get one
    back.  ``arrival`` is stamped by :meth:`Coalescer.offer` from the
    injected clock, so queue-wait accounting is deterministic under a
    fake clock.
    """

    key: str
    rhs: np.ndarray
    squeeze: bool
    future: Future
    seq: int
    arrival: float = 0.0

    @property
    def width(self) -> int:
        return int(self.rhs.shape[1])


@dataclass(frozen=True)
class Batch:
    """A flushed group of same-factor requests, ready to solve as one block."""

    key: str
    requests: tuple[SolveRequest, ...]
    trigger: str  # "full" | "deadline" | "idle" | "drain"
    formed_at: float

    @property
    def columns(self) -> int:
        return sum(r.width for r in self.requests)

    @property
    def waits(self) -> list[float]:
        """Per-request queue waits (seconds on the service clock)."""
        return [self.formed_at - r.arrival for r in self.requests]


@dataclass
class _KeyQueue:
    """Per-factor FIFO plus the arrival bookkeeping the flush rules read."""

    requests: deque = field(default_factory=deque)
    columns: int = 0
    last_arrival: float = 0.0


class Coalescer:
    """Packs pending requests into batches under the four flush rules.

    Parameters
    ----------
    clock :
        The time source; every arrival stamp and deadline comparison
        uses it, nothing else.
    max_batch :
        Flush a factor's queue as soon as its pending columns reach
        this; also the widest batch ever formed and the widest single
        request :meth:`offer` accepts.
    max_wait :
        Upper bound on any request's queue wait before its batch is
        flushed regardless of width.
    idle_wait :
        Flush when no request (for that factor) has arrived for this
        long; pass ``0`` to flush the moment the dispatcher sees an empty
        arrival gap, or ``None`` to disable the idle rule entirely.
    max_queue :
        Backpressure bound on total queued columns across all factors;
        defaults to ``16 * max_batch``.
    """

    def __init__(
        self,
        *,
        clock: Clock,
        max_batch: int = 16,
        max_wait: float = 2e-3,
        idle_wait: float | None = 0.5e-3,
        max_queue: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if idle_wait is not None and idle_wait < 0:
            raise ValueError(f"idle_wait must be >= 0 or None, got {idle_wait}")
        self._clock = clock
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.idle_wait = None if idle_wait is None else float(idle_wait)
        self.max_queue = int(max_queue) if max_queue is not None else 16 * self.max_batch
        if self.max_queue < self.max_batch:
            raise ValueError(
                f"max_queue ({self.max_queue}) must be >= max_batch "
                f"({self.max_batch}) or a full batch could never form"
            )
        self._queues: dict[str, _KeyQueue] = {}
        self._pending_columns = 0
        self.offered = 0
        self.rejected = 0
        self.peak_columns = 0

    # ------------------------------------------------------------- intake
    def offer(self, request: SolveRequest) -> None:
        """Queue *request*, stamping its arrival from the clock.

        Raises :class:`QueueFullError` when the request would push the
        total queued columns past ``max_queue`` — the caller surfaces
        that to the client instead of queueing unboundedly.
        """
        w = request.width
        if w > self.max_batch:
            raise ValueError(
                f"request is {w} columns wide but max_batch is "
                f"{self.max_batch}; a request must fit in one batch"
            )
        if self._pending_columns + w > self.max_queue:
            self.rejected += 1
            raise QueueFullError(
                f"solve queue is full ({self._pending_columns} of "
                f"{self.max_queue} columns pending)"
            )
        now = self._clock.now()
        request.arrival = now
        kq = self._queues.setdefault(request.key, _KeyQueue())
        kq.requests.append(request)
        kq.columns += w
        kq.last_arrival = now
        self._pending_columns += w
        self.offered += 1
        self.peak_columns = max(self.peak_columns, self._pending_columns)

    # ------------------------------------------------------------- state
    @property
    def pending_columns(self) -> int:
        return self._pending_columns

    @property
    def empty(self) -> bool:
        return self._pending_columns == 0

    # ------------------------------------------------------------- flush
    def _take(self, key: str, trigger: str, now: float) -> Batch:
        kq = self._queues[key]
        taken: list[SolveRequest] = []
        cols = 0
        while kq.requests and cols + kq.requests[0].width <= self.max_batch:
            req = kq.requests.popleft()
            cols += req.width
            taken.append(req)
        kq.columns -= cols
        self._pending_columns -= cols
        return Batch(key=key, requests=tuple(taken), trigger=trigger, formed_at=now)

    def _due(self, kq: _KeyQueue, now: float) -> str | None:
        """Which non-full rule (if any) has fired for this queue at *now*."""
        if not kq.requests:
            return None
        deadline_at = kq.requests[0].arrival + self.max_wait
        idle_at = (
            kq.last_arrival + self.idle_wait if self.idle_wait is not None else None
        )
        if idle_at is not None and idle_at <= now and idle_at <= deadline_at:
            return "idle"
        if deadline_at <= now:
            return "deadline"
        if idle_at is not None and idle_at <= now:
            return "idle"
        return None

    def take_ready(self, now: float | None = None) -> Batch | None:
        """The next batch due at *now* (clock time when omitted), if any.

        Full queues flush first; otherwise the deadline/idle rules are
        checked per factor in registration order — a deterministic scan,
        so the same arrival schedule always forms the same batches.
        """
        if now is None:
            now = self._clock.now()
        for key, kq in self._queues.items():
            if kq.columns >= self.max_batch:
                return self._take(key, "full", now)
        for key, kq in self._queues.items():
            trigger = self._due(kq, now)
            if trigger is not None:
                return self._take(key, trigger, now)
        return None

    def take_drain(self, now: float | None = None) -> Batch | None:
        """The next batch regardless of deadlines (shutdown draining)."""
        if now is None:
            now = self._clock.now()
        for key, kq in self._queues.items():
            if kq.requests:
                return self._take(key, "drain", now)
        return None

    def next_deadline(self) -> float | None:
        """The earliest future instant a flush rule can fire, or ``None``.

        ``None`` means "nothing pending — sleep until an arrival".  A
        full queue reports the current instant (flush is already due).
        """
        soonest: float | None = None
        for kq in self._queues.values():
            if not kq.requests:
                continue
            if kq.columns >= self.max_batch:
                return self._clock.now()
            at = kq.requests[0].arrival + self.max_wait
            if self.idle_wait is not None:
                at = min(at, kq.last_arrival + self.idle_wait)
            soonest = at if soonest is None else min(soonest, at)
        return soonest
