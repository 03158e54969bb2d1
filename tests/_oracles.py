"""Reference checks the tests hold the program to (nothing under ``src/`` uses them)."""

from __future__ import annotations

import numpy as np

from repro.graph.separators import Separation
from repro.graph.structure import Adjacency
from repro.machine.events import TaskGraph
from repro.machine.spec import MachineSpec
from repro.machine.topology import make_topology
from repro.numeric.kernels import rect_apply, rect_apply_t, solve_lower, solve_lower_t
from repro.numeric.supernodal import SupernodalFactor
from repro.sparse.csc import SymCSC


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


def dtrsm_solve(f: SupernodalFactor, b: np.ndarray) -> np.ndarray:
    """``A x = b`` by the supernodal walker with every diagonal block solved
    by substitution (BLAS ``dtrsm``), not through its inverse.

    The accuracy reference for the inverted kernels: same tree, same
    extend-add and rectangle products, only the triangle solves differ.
    *b* is an ``(n, m)`` block in the factor's (permuted) ordering.
    """
    stree = f.stree
    x = np.array(b, dtype=np.float64)
    contrib: list[np.ndarray | None] = [None] * stree.nsuper
    for s in stree.topo_order():
        sn, block, t = stree.supernodes[s], f.blocks[s], stree.supernodes[s].t
        acc = np.zeros((sn.n, x.shape[1]))
        acc[:t] = x[sn.col_lo : sn.col_hi]
        for c in stree.children[s]:
            if contrib[c] is not None and contrib[c].size:
                acc[np.searchsorted(sn.rows, stree.supernodes[c].below)] += contrib[c]
        solved = solve_lower(block[:t, :t], acc[:t])
        x[sn.col_lo : sn.col_hi] = solved
        contrib[s] = acc[t:] - rect_apply(block[t:, :t], solved)
    for s in reversed(stree.topo_order()):
        sn, block, t = stree.supernodes[s], f.blocks[s], stree.supernodes[s].t
        top = x[sn.col_lo : sn.col_hi] - rect_apply_t(block[t:, :t], x[sn.below])
        x[sn.col_lo : sn.col_hi] = solve_lower_t(block[:t, :t], top)
    return x


def backward_error(a: SymCSC, x: np.ndarray, b: np.ndarray) -> float:
    """The componentwise (Oettli–Prager) backward error of *x*.

    ``ω = max_i |b − Ax|_i / (|A||x| + |b|)_i`` over every row and column; a
    row whose denominator is zero has a zero residual and counts as 0.
    """
    full = a.to_scipy()
    num = np.abs(b - full @ x)
    den = abs(full) @ np.abs(x) + np.abs(b)
    return float(np.max(np.divide(num, den, out=np.zeros_like(num), where=den > 0)))
