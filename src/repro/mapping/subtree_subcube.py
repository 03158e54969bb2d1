"""Subtree-to-subcube assignment of the supernodal tree.

The root supernode is shared by all ``p`` processors; at each branching the
processor set splits in two halves assigned to (groups of) children
balanced by subtree work; once a subtree's processor set reaches a single
processor, the whole subtree is executed sequentially there (the part of
the computation the paper performs "at levels >= log p").

Processor sets are contiguous power-of-two ranges, which on a hypercube are
exactly subcubes (ranks sharing the high address bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.stree import SupernodalTree
from repro.util.flops import supernode_solve_flops
from repro.util.validation import check_power_of_two, require


@dataclass(frozen=True)
class ProcSet:
    """A contiguous range of processor ranks [start, start + size)."""

    start: int
    size: int

    def __post_init__(self) -> None:
        require(self.start >= 0, "ProcSet.start must be >= 0")
        check_power_of_two(self.size, "ProcSet.size")

    @property
    def stop(self) -> int:
        return self.start + self.size

    def ranks(self) -> range:
        return range(self.start, self.stop)

    def halves(self) -> tuple["ProcSet", "ProcSet"]:
        require(self.size >= 2, "cannot halve a single-processor set")
        h = self.size // 2
        return ProcSet(self.start, h), ProcSet(self.start + h, h)

    def __contains__(self, rank: int) -> bool:
        return self.start <= rank < self.stop


def _subtree_work(stree: SupernodalTree) -> np.ndarray:
    """Triangular-solve flops in the subtree rooted at each supernode."""
    work = np.zeros(stree.nsuper)
    for s in stree.topo_order():
        sn = stree.supernodes[s]
        work[s] += supernode_solve_flops(sn.n, sn.t)
        p = int(stree.parent[s])
        if p >= 0:
            work[p] += work[s]
    return work


def _split_children(children: list[int], work: np.ndarray) -> tuple[list[int], list[int]]:
    """Greedy 2-way partition of children balancing subtree work."""
    ordered = sorted(children, key=lambda c: -work[c])
    a: list[int] = []
    b: list[int] = []
    wa = wb = 0.0
    for c in ordered:
        if wa <= wb:
            a.append(c)
            wa += work[c]
        else:
            b.append(c)
            wb += work[c]
    return a, b


def subtree_to_subcube(stree: SupernodalTree, p: int) -> list[ProcSet]:
    """Assign a :class:`ProcSet` to every supernode.

    A supernode at tree level ``l`` of a balanced binary tree receives
    ``p / 2^l`` processors (down to 1), exactly as in the paper's Figure 1.
    Unbalanced trees are handled by splitting processor sets over children
    groups balanced by subtree solve-work; a supernode with a single child
    passes its whole processor set down (chains stay on the same subcube).
    """
    check_power_of_two(p, "p")
    work = _subtree_work(stree)
    assign: list[ProcSet | None] = [None] * stree.nsuper

    roots = stree.roots()
    if len(roots) == 1:
        assign[roots[0]] = ProcSet(0, p)
        stack = [roots[0]]
    else:
        # A forest: treat the roots as children of a virtual root.
        stack = []
        pending: list[tuple[list[int], ProcSet]] = [(roots, ProcSet(0, p))]
        while pending:
            group, procs = pending.pop()
            if len(group) == 1 or procs.size == 1:
                for r in group:
                    assign[r] = ProcSet(procs.start, 1) if len(group) > 1 else procs
                    stack.append(r)
                continue
            left, right = _split_children(group, work)
            lo, hi = procs.halves()
            pending.append((left, lo))
            pending.append((right, hi))

    while stack:
        s = stack.pop()
        procs = assign[s]
        assert procs is not None, "supernode visited before its processor set was assigned"
        kids = stree.children[s]
        if not kids:
            continue
        if procs.size == 1 or len(kids) == 1:
            for c in kids:
                assign[c] = procs
                stack.append(c)
            continue
        _assign_group(kids, procs, work, assign, stack)
    out = [ps for ps in assign]
    require(all(ps is not None for ps in out), "incomplete assignment")
    return out  # type: ignore[return-value]


def _assign_group(
    group: list[int],
    procs: ProcSet,
    work: np.ndarray,
    assign: list[ProcSet | None],
    stack: list[int],
) -> None:
    if len(group) == 1:
        assign[group[0]] = procs
        stack.append(group[0])
        return
    if procs.size == 1:
        for s in group:
            assign[s] = procs
            stack.append(s)
        return
    left, right = _split_children(group, work)
    lo, hi = procs.halves()
    _assign_group(left, lo, work, assign, stack)
    _assign_group(right, hi, work, assign, stack)
