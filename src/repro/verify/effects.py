"""Read/write effect summaries for execution-plan tasks.

The shared-memory engine (:mod:`repro.exec.engine`) runs an
:class:`~repro.exec.plan.ExecPlan` by dependency counting; its
correctness argument is that no two concurrent tasks ever touch the same
memory.  This module makes that argument checkable: it derives, purely
from the plan's column ranges and scatter indices, exactly which
locations every task reads and writes in each sweep.

Three address spaces cover everything the engine's hot loops touch (the
right-hand-side *column* dimension is never split across tasks — every
access spans all ``nrhs`` columns — so row indices alone discriminate):

``("x",)``
    The shared solution block, indexed by global row ``0..n-1``.  The
    forward sweep reads and writes each supernode's own column range;
    the backward sweep additionally reads the ancestor rows ``below``.
``("contrib", c)``
    Supernode ``c``'s contribution buffer, indexed by the *global* rows
    it updates (``c``'s below-rows).  Written once by the task running
    ``c``, read once by the task running ``c``'s parent (the scatter).
``("acc", s)``
    Supernode ``s``'s local accumulator, indexed by local trapezoid row.
    Private to the node by construction — it appears in summaries so
    scatter indices can be bounds-checked against the trapezoid height.

:func:`effect_conflicts` then reports every pair of effects from
*different* supernodes that overlaps on a space with at least one write
— the exact pair set the happens-before check in
:mod:`repro.verify.schedule` must prove ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.exec.plan import ExecPlan

FORWARD = "forward"
BACKWARD = "backward"
READ = "read"
WRITE = "write"

#: The shared solution block (rows of ``x`` / ``y``).
X_SPACE: tuple = ("x",)


def contrib_space(node: int) -> tuple:
    """The contribution buffer produced by supernode *node*."""
    return ("contrib", int(node))


def acc_space(node: int) -> tuple:
    """The node-local accumulator of supernode *node*."""
    return ("acc", int(node))


@dataclass(frozen=True)
class Effect:
    """One read or write of one index set in one address space.

    ``task`` is the executing task, ``node`` the supernode whose step
    performs the access, ``rows`` the sorted affected indices (global
    rows for ``x``/``contrib`` spaces, local trapezoid rows for ``acc``).
    """

    task: int
    node: int
    phase: str
    mode: str
    space: tuple
    rows: np.ndarray

    def describe(self) -> str:
        space = self.space[0] if self.space == X_SPACE else f"{self.space[0]}[{self.space[1]}]"
        return (
            f"{self.mode} of {space} rows {format_index_set(self.rows)} "
            f"by supernode {self.node} (task {self.task})"
        )


def _cols(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi, dtype=np.int64)


def forward_effects(plan: "ExecPlan") -> list[Effect]:
    """Effect summary of the forward sweep (``L y = b``), task by task.

    Mirrors ``repro.exec.engine._forward_mat`` exactly: each node reads
    its own slice of ``y`` and every child's contribution buffer,
    scatters into its private accumulator, writes its own ``y`` slice
    back, and (when it has below-rows) writes its own contribution
    buffer.  The consumer's ``contrib[c] = None`` release is not
    modelled — it is covered by the read it follows.
    """
    out: list[Effect] = []
    for ti, task in enumerate(plan.tasks):
        for s in task.nodes:
            st = plan.steps[s]
            if st.t:
                cols = _cols(st.col_lo, st.col_hi)
                out.append(Effect(ti, s, FORWARD, READ, X_SPACE, cols))
                out.append(Effect(ti, s, FORWARD, WRITE, X_SPACE, cols))
            for c, idx in zip(st.children, st.child_scatter):
                out.append(
                    Effect(ti, s, FORWARD, READ, contrib_space(c), plan.steps[c].below)
                )
                out.append(Effect(ti, s, FORWARD, WRITE, acc_space(s), np.sort(idx)))
            if st.n > st.t:
                out.append(Effect(ti, s, FORWARD, WRITE, contrib_space(s), st.below))
    return out


def backward_effects(plan: "ExecPlan") -> list[Effect]:
    """Effect summary of the backward sweep (``L^T x = y``), task by task.

    Mirrors ``repro.exec.engine._backward_mat``: each node gathers the
    already-solved ancestor rows ``x[below]``, then solves and writes its
    own column range.  No contribution buffers exist in this sweep.
    """
    out: list[Effect] = []
    for ti, task in enumerate(plan.tasks):
        for s in task.nodes:
            st = plan.steps[s]
            if not st.t:
                continue
            cols = _cols(st.col_lo, st.col_hi)
            if st.n > st.t:
                out.append(Effect(ti, s, BACKWARD, READ, X_SPACE, st.below))
            out.append(Effect(ti, s, BACKWARD, READ, X_SPACE, cols))
            out.append(Effect(ti, s, BACKWARD, WRITE, X_SPACE, cols))
    return out


#: One conflicting effect pair and the index set they overlap on.
Conflict = tuple[Effect, Effect, np.ndarray]


def effect_conflicts(effects: list[Effect]) -> list[Conflict]:
    """Every conflicting effect pair, with the overlapping index set.

    Two effects conflict when they name the same space, come from
    different supernodes, overlap on at least one index, and at least
    one of them is a write.  Pairs within one supernode are excluded:
    a node's own read-then-write sequence (and the legitimate ``+=``
    scatter reduction into its accumulator) is sequential by
    construction.  Same-*task* pairs across different nodes are
    included — the schedule checker validates their program order.
    """
    by_space: dict[tuple, list[Effect]] = {}
    for e in effects:
        by_space.setdefault(e.space, []).append(e)
    out: list[Conflict] = []
    for effs in by_space.values():
        for i, a in enumerate(effs):
            a_lo = int(a.rows[0]) if a.rows.size else 0
            a_hi = int(a.rows[-1]) if a.rows.size else -1
            for b in effs[i + 1 :]:
                if a.node == b.node or (a.mode == READ and b.mode == READ):
                    continue
                if not b.rows.size or not a.rows.size:
                    continue
                # Cheap bounding-interval rejection before the exact test.
                if int(b.rows[-1]) < a_lo or int(b.rows[0]) > a_hi:
                    continue
                overlap = np.intersect1d(a.rows, b.rows)
                if overlap.size:
                    out.append((a, b, overlap))
    return out


def format_index_set(rows: np.ndarray) -> str:
    """Compact run-length rendering of a sorted index set: ``[3..7, 12]``."""
    if rows.size == 0:
        return "[]"
    parts: list[str] = []
    start = prev = int(rows[0])
    for r in rows[1:]:
        r = int(r)
        if r == prev + 1:
            prev = r
            continue
        parts.append(f"{start}..{prev}" if prev > start else f"{start}")
        start = prev = r
    parts.append(f"{start}..{prev}" if prev > start else f"{start}")
    return "[" + ", ".join(parts) + "]"


__all__ = [
    "BACKWARD",
    "FORWARD",
    "READ",
    "WRITE",
    "X_SPACE",
    "Conflict",
    "Effect",
    "acc_space",
    "backward_effects",
    "contrib_space",
    "effect_conflicts",
    "format_index_set",
    "forward_effects",
]
