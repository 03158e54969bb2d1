"""Level programs and execution plans over the supernodal tree.

The simulated solvers in :mod:`repro.core` model the paper's
message-passing algorithms; this module is the *real* counterpart.  It
turns a :class:`~repro.symbolic.stree.SupernodalTree` into the two
schedules the host executes:

:func:`compile_level_program` lays the tree out for the fused backend as
a :class:`LevelProgram`: per bottom-up elimination-tree level one packed
accumulator in one canonical node order — the level's supernodes in
ascending id, their tops back to back, then the belows of those that
have any, in the same order — and the level's whole extend-add compiled
into one structure-only ``scipy.sparse`` CSR operator ``replay`` (row
``i`` lists what accumulator row ``i`` sums, in the tree's order, all
coefficients 1.0).  The tree-wide contribution arena follows the same
order, level after level.  A level's diagonal inverses and its
rectangles each lower to one sparse block
(:func:`repro.exec.fused.build_fused_panels`).  The level order alone
orders the work, and it is a pure function of the tree.  So is the
program's two-way split (:func:`split_parts`): the subtrees under the
tree's first fork, cut into two id ranges the fused sweeps may run on
two threads, each owning one run of rows per level (:func:`part_rows`).

:func:`build_plan` builds the :class:`ExecPlan` of the thread-pool
engine baseline (:mod:`repro.exec.engine`) — everything it needs to run
forward elimination and backward substitution without recomputing any
structure:

* **Per-supernode steps** (:class:`NodeStep`): column range, trapezoid
  shape, the ascending child list (which fixes the deterministic
  reduction order), and precomputed scatter indices mapping each child's
  below-rows into this node's rows (the solve-phase analogue of the
  multifrontal extend-add).
* **Subtree task aggregation**: every subtree whose whole solve costs at
  most ``grain`` flops per right-hand side collapses into a single task
  executed sequentially inside one worker, exactly the paper's
  subtree-to-subcube intuition — independent subtrees are the cheap,
  embarrassingly parallel part, and scheduling them node by node would
  drown in dispatch overhead.  Supernodes above the threshold become
  singleton tasks (the pipelined top of the tree).
* **The task tree** with dependency counts for both directions: a forward
  task is ready when all of its child tasks finished; a backward task is
  ready when its parent task finished.

Plans and programs depend only on the symbolic structure (never on
numeric values), so they are cached per structure by
:mod:`repro.exec.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from repro.symbolic.etree import NO_PARENT
from repro.symbolic.stree import SupernodalTree
from repro.util.flops import gemm_flops, supernode_solve_flops, trsm_flops
from repro.util.validation import require

#: Default aggregation grain: subtrees cheaper than this many flops per
#: right-hand side run as one sequential task.  Chosen so that a task's
#: arithmetic comfortably outweighs one ThreadPoolExecutor dispatch.
DEFAULT_GRAIN = 4096


@dataclass(frozen=True, slots=True)
class NodeStep:
    """Structure-only data for one supernode, consumed by the hot loop.

    ``children`` ascend, and every execution reduces child contributions
    in this order — that (not the execution's own schedule) is what makes
    serial, fused and engine results bitwise identical.
    """

    s: int
    col_lo: int
    col_hi: int
    t: int
    n: int
    below: np.ndarray
    children: tuple[int, ...]
    child_scatter: tuple[np.ndarray, ...]


@dataclass(frozen=True, slots=True)
class ExecTask:
    """One schedulable unit: a supernode, or a whole aggregated subtree.

    ``nodes`` ascend, which over a postordered tree is a valid bottom-up
    order inside the task (children precede parents); the backward sweep
    simply walks it reversed.
    """

    index: int
    root: int
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class ExecPlan:
    """A reusable schedule for one symbolic structure.

    Attributes
    ----------
    steps : per-supernode :class:`NodeStep`, indexed by supernode id.
    tasks : task list, topologically sorted (child tasks first).
    task_parent : parent task index per task (-1 at roots).
    task_children : child task indices per task (ascending).
    task_level : bottom-up level per task (leaf tasks at 0).
    node_level : bottom-up level per *supernode* (from
        :meth:`repro.symbolic.stree.SupernodalTree.bottom_up_levels`).
    grain : the aggregation threshold the plan was built with.
    """

    steps: list[NodeStep]
    tasks: list[ExecTask]
    task_parent: np.ndarray
    task_children: list[list[int]]
    task_level: np.ndarray
    node_level: np.ndarray
    grain: int

    @property
    def ntasks(self) -> int:
        return len(self.tasks)

    @property
    def nlevels(self) -> int:
        return int(self.task_level.max()) + 1 if self.ntasks else 0

    def forward_deps(self) -> tuple[list[int], list[list[int]]]:
        """(dependency counts, dependents) for the leaves-to-roots sweep."""
        ndeps = [len(self.task_children[i]) for i in range(self.ntasks)]
        dependents: list[list[int]] = [
            [] if self.task_parent[i] == -1 else [int(self.task_parent[i])]
            for i in range(self.ntasks)
        ]
        return ndeps, dependents

    def backward_deps(self) -> tuple[list[int], list[list[int]]]:
        """(dependency counts, dependents) for the roots-to-leaves sweep."""
        ndeps = [0 if self.task_parent[i] == -1 else 1 for i in range(self.ntasks)]
        dependents = [list(self.task_children[i]) for i in range(self.ntasks)]
        return ndeps, dependents

    def stats(self) -> dict[str, int]:
        """Summary counters (used by the CLI and the benchmark harness)."""
        singleton = sum(1 for t in self.tasks if len(t.nodes) == 1)
        return {
            "nsuper": len(self.steps),
            "ntasks": self.ntasks,
            "nlevels": self.nlevels,
            "subtree_tasks": self.ntasks - singleton,
            "singleton_tasks": singleton,
            "max_task_nodes": max((len(t.nodes) for t in self.tasks), default=0),
            "grain": self.grain,
        }


def _node_steps(stree: SupernodalTree) -> list[NodeStep]:
    """Precompute scatter indices for every (child -> parent) edge."""
    steps: list[NodeStep] = []
    for s, sn in enumerate(stree.supernodes):
        children = tuple(stree.children[s])
        scatter: list[np.ndarray] = []
        for c in children:
            child_below = stree.supernodes[c].below
            idx = np.searchsorted(sn.rows, child_below)
            contained = idx.size == 0 or (
                int(idx.max()) < sn.rows.shape[0]
                and np.array_equal(sn.rows[idx], child_below)
            )
            require(
                contained,
                f"supernode {c}'s below-rows are not contained in parent {s}'s rows "
                "— broken assembly tree",
            )
            scatter.append(idx)
        steps.append(
            NodeStep(
                s=s,
                col_lo=sn.col_lo,
                col_hi=sn.col_hi,
                t=sn.t,
                n=sn.n,
                below=sn.below,
                children=children,
                child_scatter=tuple(scatter),
            )
        )
    return steps


def build_plan(stree: SupernodalTree, *, grain: int = DEFAULT_GRAIN) -> ExecPlan:
    """Build the level-scheduled task graph for one supernodal tree."""
    require(grain >= 0, f"grain must be >= 0, got {grain!r}")
    ns = stree.nsuper
    steps = _node_steps(stree)
    node_level = stree.bottom_up_levels()

    # Solve flops per RHS of each whole subtree.
    subtree = np.array(
        [supernode_solve_flops(sn.n, sn.t, 1) for sn in stree.supernodes], dtype=np.int64
    )
    for s in range(ns):
        p = int(stree.parent[s])
        if p != NO_PARENT:
            subtree[p] += subtree[s]

    # Task roots: a node joins its parent's task iff the parent's whole
    # subtree is below the grain (then so is its own).  Parents have higher
    # indices, so a descending sweep sees root[p] before root[s].
    root = np.arange(ns, dtype=np.int64)
    for s in range(ns - 1, -1, -1):
        p = int(stree.parent[s])
        if p != NO_PARENT and subtree[p] <= grain:
            root[s] = root[p]

    members: dict[int, list[int]] = {}
    for s in range(ns):
        members.setdefault(int(root[s]), []).append(s)

    tasks: list[ExecTask] = []
    task_of = np.full(ns, -1, dtype=np.int64)
    for ti, r in enumerate(sorted(members)):
        nodes = members[r]  # ascending by construction
        task_of[nodes] = ti
        tasks.append(ExecTask(index=ti, root=r, nodes=tuple(nodes)))

    ntasks = len(tasks)
    task_parent = np.full(ntasks, -1, dtype=np.int64)
    task_children: list[list[int]] = [[] for _ in range(ntasks)]
    for ti, task in enumerate(tasks):
        p = int(stree.parent[task.root])
        if p != NO_PARENT:
            tp = int(task_of[p])
            task_parent[ti] = tp
            task_children[tp].append(ti)

    # Child tasks have smaller roots than their parents, hence smaller
    # indices: an ascending sweep yields bottom-up levels directly.
    task_level = np.zeros(ntasks, dtype=np.int64)
    for ti in range(ntasks):
        if task_children[ti]:
            task_level[ti] = 1 + max(int(task_level[c]) for c in task_children[ti])

    return ExecPlan(
        steps=steps,
        tasks=tasks,
        task_parent=task_parent,
        task_children=task_children,
        task_level=task_level,
        node_level=node_level,
        grain=int(grain),
    )


# --------------------------------------------------------------- level program
@dataclass(frozen=True, slots=True)
class Level:
    """One fully-packed elimination-tree level of a :class:`LevelProgram`.

    The level accumulator is laid out ``[tops | belows]``: the level's
    supernodes in ascending id, their tops back to back, then the belows
    of those that have any, in the same order; the same belows, in that
    order, are the contribution arena's rows from ``arena_lo``.
    ``gather_rows`` names, per accumulator row, the solution row it
    stands for: a top's own column, a below row's ancestor row.  Its
    first ``top_total`` entries are where the solved tops are written
    back; the backward sweep gathers the whole vector in one ``take``.

    ``replay`` is the level's extend-add as one structure-only CSR
    operator of shape ``(size, n + contrib_total)`` over the fused
    workspace ``[y | contrib]`` (solution rows, then the tree-wide
    contribution arena).  Row ``i`` lists what accumulator row ``i``
    sums: a top row first its own right-hand-side row (column
    ``gather_rows[i]``), then every row its child contributions (columns
    ``n + arena row``) in the tree's (parent ascending, child ascending,
    row ascending) order; every coefficient is exactly 1.0.  scipy's row
    loop starts each row at +0.0 and adds ``1.0 * x`` term by term in
    storage order, so the product is the per-node walker's in-order sum.
    """

    index: int
    size: int
    top_total: int
    gather_rows: np.ndarray
    replay: csr_array
    arena_lo: int


@dataclass(frozen=True)
class LevelProgram:
    """A flat, vectorized compilation of a supernodal tree.

    Per elimination-tree level every supernode panel's position is fixed
    at compile time, so the fused backend executes a level as a handful
    of whole-level calls instead of per-node Python dispatch.  The program
    depends only on the tree: its nodes' steps and bottom-up levels.

    ``node_top_off``/``node_below_off`` give each supernode's rows inside
    its level's accumulator (-1 where absent); ``contrib_off`` its slice
    of the tree-wide contribution arena, which follows the ``n`` solution
    rows in the fused workspace.  ``max_acc`` (the largest level) sizes
    the per-level scratch of the reusable
    :class:`~repro.exec.arena.FusedWorkspace`, whose arena checks a
    lease against the program by weak reference (hence no ``slots``).

    ``parts`` is the two-way split of :func:`split_parts`: two disjoint
    supernode-id ranges ``[lo, hi)``, each a union of whole subtrees, that
    the fused sweeps may run at the same time; every node from the
    larger ``hi`` up is the *top*, which runs after them forward and
    before them backward.  Empty when the tree has no fork.  Since every
    level lays its nodes out in ascending id, each part owns one
    contiguous run of top rows and one of below rows in every level
    (:func:`part_rows`).
    """

    levels: tuple[Level, ...]
    node_level: np.ndarray
    node_top_off: np.ndarray
    node_below_off: np.ndarray
    contrib_off: np.ndarray
    contrib_total: int
    n: int
    nsuper: int
    max_acc: int
    parts: tuple[tuple[int, int], ...] = ()

    @property
    def nlevels(self) -> int:
        return len(self.levels)


def _replay_operator(
    size: int, top_src: np.ndarray, dst: np.ndarray, src: np.ndarray, ncols: int
) -> csr_array:
    """One level's extend-add as a structure-only CSR operator.

    *dst*/*src* list the replay entries (accumulator row, workspace
    column) in the tree's order; every top row ``i`` gets its own
    right-hand-side column ``top_src[i]`` ahead of them.  A stable sort
    by row keeps each row's entries in that order.
    """
    rows = np.concatenate((np.arange(top_src.size), dst))
    cols = np.concatenate((top_src, src))
    order = np.argsort(rows, kind="stable")
    index = np.int32 if max(ncols, rows.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(size + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return csr_array(
        (np.ones(rows.size), cols[order].astype(index), indptr), shape=(size, ncols)
    )


def level_nodes(node_level: np.ndarray, nlevels: int) -> list[np.ndarray]:
    """Per level, its supernodes in ascending id — the order of its tops and belows."""
    order = np.argsort(node_level, kind="stable")
    return np.split(order, np.searchsorted(node_level[order], np.arange(1, nlevels)))


def compile_level_program(stree: SupernodalTree) -> LevelProgram:
    """Compile *stree* into the flat level program the fused backend runs.

    Levels are the tree's bottom-up levels.  Per level the supernodes are
    laid out in ascending id (see :class:`Level`), and every
    child-contribution edge is flattened into the level's ``replay``
    operator, which keeps, per accumulator row, the ascending-child
    reduction order — so the fused execution is bitwise identical to the
    per-node walker.
    """
    return _compile_levels(_node_steps(stree), stree.bottom_up_levels())


def _compile_levels(steps: list[NodeStep], node_level: np.ndarray) -> LevelProgram:
    """The level program that places each of *steps* on its ``node_level``."""
    ns = len(steps)
    nlev = int(node_level.max()) + 1 if ns else 0
    n = max((st.col_hi for st in steps), default=0)

    node_top_off = np.full(ns, -1, dtype=np.int64)
    node_below_off = np.full(ns, -1, dtype=np.int64)
    contrib_off = np.full(ns, -1, dtype=np.int64)
    width = np.array([st.t for st in steps], dtype=np.int64)
    below_count = np.array([st.n - st.t for st in steps], dtype=np.int64)
    col_lo = np.array([st.col_lo for st in steps], dtype=np.int64)
    # the fused workspace: n solution rows, then the whole contribution arena
    ncols = n + int(below_count.sum())

    levels: list[Level] = []
    ccur = 0
    for li, nodes in enumerate(level_nodes(node_level, nlev)):
        owners = nodes[below_count[nodes] > 0]
        # tops back to back, then the owners' belows; the arena follows them
        w, counts = width[nodes], below_count[owners]
        top_total = int(w.sum())
        node_top_off[nodes] = np.cumsum(w) - w
        node_below_off[owners] = top_total + np.cumsum(counts) - counts
        contrib_off[owners] = node_below_off[owners] - top_total + ccur
        size = top_total + int(counts.sum())

        # --- per accumulator row, the solution row it stands for: tops
        # their own columns, belows their ancestor rows ---
        gather_rows = np.concatenate([
            np.repeat(col_lo[nodes] - node_top_off[nodes], w) + np.arange(top_total),
            *(steps[s].below for s in owners.tolist()),
        ], dtype=np.int64)

        # --- flatten the level's child-contribution edges ---
        edges = [  # parents ascending; children ascend within each
            (s, c, idx)
            for s in nodes.tolist()
            for c, idx in zip(steps[s].children, steps[s].child_scatter)
            if idx.size
        ]
        lens = np.array([idx.size for _, _, idx in edges], dtype=np.int64)
        parent = np.repeat(np.array([s for s, _, _ in edges], dtype=np.int64), lens)
        child = np.repeat(np.array([c for _, c, _ in edges], dtype=np.int64), lens)
        row = np.concatenate([np.empty(0, np.int64), *(idx for _, _, idx in edges)])
        replay = _replay_operator(
            size,
            gather_rows[:top_total],
            row + np.where(row < width[parent], node_top_off[parent],
                           node_below_off[parent] - width[parent]),
            # a child's rows are consecutive in the arena: offset + position in its block
            n + contrib_off[child] + np.arange(row.size) - np.repeat(np.cumsum(lens) - lens, lens),
            ncols,
        )

        levels.append(Level(
            index=li,
            size=size,
            top_total=top_total,
            gather_rows=gather_rows,
            replay=replay,
            arena_lo=ccur,
        ))
        ccur += size - top_total

    return LevelProgram(
        levels=tuple(levels),
        node_level=node_level,
        node_top_off=node_top_off,
        node_below_off=node_below_off,
        contrib_off=contrib_off,
        contrib_total=ccur,
        n=n,
        nsuper=ns,
        max_acc=max((lvl.size for lvl in levels), default=0),
        parts=split_parts(steps),
    )


def split_parts(steps: list[NodeStep]) -> tuple[tuple[int, int], ...]:
    """The two supernode-id ranges the fused sweeps run side by side.

    Walking down from the root while a node has one child, the first node
    with two or more children is the fork (a forest forks at its roots).
    Its child subtrees, in postorder, are cut into two contiguous id
    ranges whose solve flops are as even as one cut makes them — the
    paper's subtree-to-subcube split at its first level.  The fork and
    its ancestors are the top.  A path has no fork and no split.
    """
    ns = len(steps)
    counts = np.fromiter((len(st.children) for st in steps), np.int64, ns)
    parent = np.full(ns, -1, dtype=np.int64)
    parent[np.fromiter((c for st in steps for c in st.children), np.int64, int(counts.sum()))] = (
        np.repeat(np.arange(ns), counts))
    kids = np.flatnonzero(parent < 0).tolist()
    while len(kids) == 1:
        kids = list(steps[kids[0]].children)
    if len(kids) < 2:
        return ()
    # Postorder makes subtree k the ids from the previous kid's + 1 to k:
    # every other node in it has a larger parent in it.
    ids, top = np.arange(ns), kids[-1] + 1
    block = np.searchsorted(kids, ids[:top])
    inner = np.flatnonzero(np.isin(ids[:top], kids, invert=True))
    up = parent[inner]
    if np.any(up <= inner) or np.any(np.searchsorted(kids, up) != block[inner]):
        return ()  # not postordered
    width = np.fromiter((st.t for st in steps), np.int64, ns)
    height = np.fromiter((st.n for st in steps), np.int64, ns)
    flops = np.cumsum(trsm_flops(width) + gemm_flops(height - width, width))[kids]
    cut = kids[int(np.argmin(np.abs(2 * flops[:-1] - flops[-1])))] + 1
    return ((0, cut), (cut, top))


def part_rows(program: LevelProgram, lo: int, hi: int) -> list[tuple[int, int, int, int]]:
    """Per level, the accumulator rows of the supernodes ``lo <= s < hi``.

    Each entry is ``(ta, tb, ba, bb)``: their tops are rows ``[ta, tb)``,
    their belows rows ``[ba, bb)`` — one run each, since a level lays its
    nodes out in ascending id.  The whole id range gives ``(0,
    top_total, top_total, size)``.
    """
    (ta, ba), (tb, bb) = _first_rows(program, lo), _first_rows(program, hi)
    return list(zip(ta.tolist(), tb.tolist(), ba.tolist(), bb.tolist()))


def _first_rows(program: LevelProgram, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Per level, the first top row and the first below row of the nodes ``s >= bound``.

    A level with no such node gives its ``top_total`` and its ``size``.
    """
    tops = np.array([lvl.top_total for lvl in program.levels], dtype=np.int64)
    belows = np.array([lvl.size for lvl in program.levels], dtype=np.int64)
    level, below = program.node_level[bound:], program.node_below_off[bound:]
    np.minimum.at(tops, level, program.node_top_off[bound:])
    np.minimum.at(belows, level[below >= 0], below[below >= 0])
    return tops, belows
