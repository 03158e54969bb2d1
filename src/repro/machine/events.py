"""Discrete-event task-graph simulator.

The execution model:

* A :class:`Task` is bound to one processor, has a fixed compute cost in
  seconds, a scheduling priority (lower runs first among simultaneously
  ready tasks on the same processor), and optionally a ``run`` thunk that
  performs real numeric work when the task is dispatched.  Dispatch order
  always respects dependencies, so thunk side effects are deterministic and
  independent of the simulated timing parameters.
* An edge ``(src -> dst, words)`` means *dst* cannot start before *src*
  finishes; if the two tasks live on different processors the data arrives
  ``t_s + t_w*words + t_h*hops`` after *src* finishes (cut-through model,
  non-blocking send).  Same-processor edges carry no cost.
* Each processor executes one task at a time, non-preemptively, choosing
  among its ready tasks by priority.

This is exactly the machinery needed to reproduce the paper's pipelined
algorithms: the wavefront of Figure 3 emerges from the dependency structure
rather than being hard-coded.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.machine.spec import MachineSpec
from repro.machine.topology import make_topology
from repro.util.validation import check_positive, require


@dataclass
class Task:
    """One unit of work bound to a processor."""

    tid: int
    proc: int
    cost: float
    priority: tuple[Any, ...] = ()
    label: str = ""
    run: Callable[[], None] | None = None


@dataclass
class _Edge:
    src: int
    dst: int
    words: float


@dataclass
class TaskGraph:
    """A static DAG of processor-bound tasks with weighted message edges."""

    nproc: int
    tasks: list[Task] = field(default_factory=list)
    edges: list[_Edge] = field(default_factory=list)

    def add_task(
        self,
        proc: int,
        cost: float,
        *,
        priority: tuple[Any, ...] = (),
        label: str = "",
        run: Callable[[], None] | None = None,
    ) -> int:
        """Append a task; returns its id."""
        require(0 <= proc < self.nproc, f"proc {proc} out of range [0, {self.nproc})")
        check_positive(cost, "task cost", strict=False)
        tid = len(self.tasks)
        self.tasks.append(Task(tid=tid, proc=proc, cost=cost, priority=priority, label=label, run=run))
        return tid

    def add_edge(self, src: int, dst: int, words: float = 0.0) -> None:
        """Declare that *dst* depends on *src*, carrying *words* of data."""
        require(0 <= src < len(self.tasks), f"unknown src task {src}")
        require(0 <= dst < len(self.tasks), f"unknown dst task {dst}")
        require(src != dst, "self edge")
        check_positive(words, "edge words", strict=False)
        self.edges.append(_Edge(src, dst, words))

    @property
    def ntasks(self) -> int:
        return len(self.tasks)


@dataclass
class MessageRecord:
    """One cross-processor message observed during simulation."""

    src_proc: int
    dst_proc: int
    words: float
    depart: float
    arrive: float


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    makespan: float
    start: list[float]
    finish: list[float]
    busy: list[float]
    messages: list[MessageRecord]
    nproc: int

    @property
    def comm_volume_words(self) -> float:
        return sum(m.words for m in self.messages)

    @property
    def message_count(self) -> int:
        return len(self.messages)


def simulate(graph: TaskGraph, spec: MachineSpec) -> SimResult:
    """Run the event-driven simulation; returns timing and message stats.

    Each task's ``run`` thunk is invoked at dispatch (in an order
    consistent with the DAG), so the simulation also produces the real
    numeric results of the algorithm being simulated.
    """
    topo = make_topology(spec.topology, graph.nproc)
    n = graph.ntasks
    indeg = [0] * n
    succs: list[list[_Edge]] = [[] for _ in range(n)]
    for e in graph.edges:
        indeg[e.dst] += 1
        succs[e.src].append(e)

    start = [0.0] * n
    finish = [0.0] * n
    ready_at = [0.0] * n  # earliest start implied by arrived inputs
    remaining = indeg[:]

    # Per-proc ready heaps: (priority, tid, earliest_start)
    ready: list[list[tuple[tuple, int]]] = [[] for _ in range(graph.nproc)]
    proc_free = [0.0] * graph.nproc
    proc_running = [False] * graph.nproc
    busy = [0.0] * graph.nproc
    messages: list[MessageRecord] = []

    for tid in range(n):
        if remaining[tid] == 0:
            t = graph.tasks[tid]
            heapq.heappush(ready[t.proc], ((t.priority, tid), tid))

    # Event queue: (time, kind, payload). kinds: 0 = task finish (payload tid),
    # 1 = wake proc (payload proc).
    events: list[tuple[float, int, int]] = []
    scheduled = [False] * n
    done_count = 0

    def try_dispatch(proc: int, now: float) -> None:
        """Dispatch the best ready task on *proc* whose inputs have arrived."""
        if proc_running[proc]:
            return
        heap = ready[proc]
        # Collect tasks whose data has arrived (ready_at <= max(now, proc_free)).
        t0 = max(now, proc_free[proc])
        arrived: list[tuple[tuple, int]] = []
        deferred: list[tuple[tuple, int]] = []
        while heap:
            key, tid = heapq.heappop(heap)
            if scheduled[tid]:
                continue
            if ready_at[tid] <= t0:
                arrived.append((key, tid))
                break  # heap order => this is the best arrived task
            deferred.append((key, tid))
        for item in deferred:
            heapq.heappush(heap, item)
        if arrived:
            key, tid = arrived[0]
            t = graph.tasks[tid]
            scheduled[tid] = True
            proc_running[proc] = True
            start[tid] = max(t0, ready_at[tid])
            finish[tid] = start[tid] + t.cost
            busy[proc] += t.cost
            if t.run is not None:
                t.run()
            heapq.heappush(events, (finish[tid], 0, tid))
        elif heap or deferred:
            # Everything ready-listed is still in flight; wake at the
            # earliest arrival.
            pending = [ready_at[tid] for _, tid in deferred if not scheduled[tid]]
            pending += [ready_at[tid] for _, tid in heap if not scheduled[tid]]
            if pending:
                heapq.heappush(events, (min(p for p in pending if p > t0), 1, proc))

    for proc in range(graph.nproc):
        try_dispatch(proc, 0.0)

    while events:
        now, kind, payload = heapq.heappop(events)
        if kind == 0:
            tid = payload
            t = graph.tasks[tid]
            proc_running[t.proc] = False
            proc_free[t.proc] = max(proc_free[t.proc], now)
            done_count += 1
            for e in succs[tid]:
                dst = graph.tasks[e.dst]
                if dst.proc != t.proc:
                    delay = spec.message_time(e.words, topo.hops(t.proc, dst.proc))
                    if e.words > 0 or delay > 0:
                        messages.append(
                            MessageRecord(t.proc, dst.proc, e.words, now, now + delay)
                        )
                    arrival = now + delay
                else:
                    arrival = now
                ready_at[e.dst] = max(ready_at[e.dst], arrival)
                remaining[e.dst] -= 1
                if remaining[e.dst] == 0:
                    heapq.heappush(ready[dst.proc], ((dst.priority, e.dst), e.dst))
                    try_dispatch(dst.proc, now)
            try_dispatch(t.proc, now)
        else:
            try_dispatch(payload, now)

    if done_count != n:
        raise RuntimeError(
            f"simulation deadlocked: {done_count}/{n} tasks completed (cyclic graph?)"
        )
    return SimResult(
        makespan=max(finish, default=0.0),
        start=start,
        finish=finish,
        busy=busy,
        messages=messages,
        nproc=graph.nproc,
    )
