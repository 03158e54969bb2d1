"""Reference checks the tests hold the program to (nothing under ``src/`` uses them)."""

from __future__ import annotations

import numpy as np

from repro.graph.separators import Separation
from repro.graph.structure import Adjacency
from repro.machine.events import TaskGraph
from repro.machine.spec import MachineSpec
from repro.machine.topology import make_topology


def is_valid_separation(g: Adjacency, s: Separation) -> bool:
    """True iff no edge joins ``s.left`` and ``s.right``."""
    in_right = np.zeros(g.n, dtype=bool)
    in_right[s.right] = True
    return not any(bool(np.any(in_right[g.neighbors(int(v))])) for v in s.left)


def critical_path(graph: TaskGraph, spec: MachineSpec) -> float:
    """Length of the longest cost+message path (infinite-processor bound).

    Task ids must be topologically ordered (the builders add tasks bottom-up).
    """
    topo = make_topology(spec.topology, graph.nproc)
    best = [0.0] * graph.ntasks
    incoming: list[list] = [[] for _ in range(graph.ntasks)]
    for e in graph.edges:
        assert e.src < e.dst, "task ids must be topologically ordered (src < dst)"
        incoming[e.dst].append(e)
    for tid, t in enumerate(graph.tasks):
        ready = 0.0
        for e in incoming[tid]:
            src = graph.tasks[e.src]
            delay = 0.0
            if src.proc != t.proc:
                delay = spec.message_time(e.words, topo.hops(src.proc, t.proc))
            ready = max(ready, best[e.src] + delay)
        best[tid] = ready + t.cost
    return max(best, default=0.0)
