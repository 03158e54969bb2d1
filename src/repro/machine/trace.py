"""Execution-trace analysis and ASCII Gantt rendering.

Turns a :class:`~repro.machine.events.SimResult` (plus its
:class:`~repro.machine.events.TaskGraph`) into per-processor utilisation
statistics and a terminal-friendly Gantt chart — the tool used to diagnose
pipeline behaviour (e.g. the Figure 3/4 wavefronts and the backward-ring
direction bug class) and to report busy/idle/communication breakdowns in
the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.events import SimResult, TaskGraph
from repro.util.validation import check_positive, require


@dataclass(frozen=True)
class ProcessorStats:
    """Utilisation of one processor over a simulated run."""

    proc: int
    busy_seconds: float
    idle_seconds: float
    tasks_run: int
    messages_sent: int
    messages_received: int
    words_sent: float

    @property
    def utilisation(self) -> float:
        total = self.busy_seconds + self.idle_seconds
        return self.busy_seconds / total if total > 0 else 1.0


def processor_stats(graph: TaskGraph, sim: SimResult) -> list[ProcessorStats]:
    """Per-processor busy/idle/message statistics."""
    tasks_run = [0] * graph.nproc
    for tid, task in enumerate(graph.tasks):
        tasks_run[task.proc] += 1
    sent = [0] * graph.nproc
    received = [0] * graph.nproc
    words = [0.0] * graph.nproc
    for msg in sim.messages:
        sent[msg.src_proc] += 1
        received[msg.dst_proc] += 1
        words[msg.src_proc] += msg.words
    return [
        ProcessorStats(
            proc=p,
            busy_seconds=sim.busy[p],
            idle_seconds=max(sim.makespan - sim.busy[p], 0.0),
            tasks_run=tasks_run[p],
            messages_sent=sent[p],
            messages_received=received[p],
            words_sent=words[p],
        )
        for p in range(graph.nproc)
    ]


def utilisation_summary(graph: TaskGraph, sim: SimResult) -> str:
    """One line per processor: bar + numbers."""
    stats = processor_stats(graph, sim)
    lines = [
        f"makespan {sim.makespan * 1e3:.3f} ms, "
        f"{graph.ntasks} tasks, {sim.message_count} messages, "
        f"{sim.comm_volume_words:.0f} words"
    ]
    for s in stats:
        bar = "#" * int(round(s.utilisation * 40))
        lines.append(
            f"P{s.proc:<3d} |{bar:<40s}| {s.utilisation * 100:5.1f}% busy, "
            f"{s.tasks_run:5d} tasks, {s.messages_sent:4d} msgs out"
        )
    return "\n".join(lines)


def gantt(graph: TaskGraph, sim: SimResult, *, width: int = 100) -> str:
    """ASCII Gantt chart: one row per processor, time left to right.

    Each task paints its label's first character over its time span
    ('#' when unlabelled); '.' is idle.  Overlapping zero-cost tasks are
    invisible (they occupy no time), which is the desired behaviour for
    relays.
    """
    check_positive(width, "width")
    require(sim.makespan > 0, "empty simulation")
    scale = width / sim.makespan
    rows = [["."] * width for _ in range(graph.nproc)]
    for tid, task in enumerate(graph.tasks):
        if task.cost <= 0:
            continue
        lo = int(sim.start[tid] * scale)
        hi = max(int(sim.finish[tid] * scale), lo + 1)
        mark = task.label[0] if task.label else "#"
        for c in range(lo, min(hi, width)):
            rows[task.proc][c] = mark
    header = f"time 0 .. {sim.makespan * 1e3:.3f} ms ({width} cols)"
    return "\n".join([header] + [f"P{p:<3d} " + "".join(r) for p, r in enumerate(rows)])


def critical_tasks(graph: TaskGraph, sim: SimResult, top: int = 10) -> list[tuple[int, str, float]]:
    """The *top* tasks finishing last — where the makespan is decided."""
    order = np.argsort(sim.finish)[::-1][:top]
    return [(int(t), graph.tasks[int(t)].label, float(sim.finish[int(t)])) for t in order]
