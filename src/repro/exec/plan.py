"""Execution plans: level-scheduled task graphs over the supernodal tree.

The simulated solvers in :mod:`repro.core` model the paper's
message-passing algorithms; this module is the *real* counterpart.  It
turns a :class:`~repro.symbolic.stree.SupernodalTree` into an
:class:`ExecPlan` — the schedule the fused :class:`LevelProgram` is
compiled from (``steps`` and ``node_level``) and everything the
thread-pool engine baseline (:mod:`repro.exec.engine`) needs to run
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

:func:`compile_level_program` then lays a plan out for the fused backend
as a :class:`LevelProgram`: per elimination-tree level one packed
accumulator, the level's whole extend-add compiled into one
structure-only ``scipy.sparse`` CSR operator ``replay`` (row ``i`` lists
what accumulator row ``i`` sums, in the plan's order, all coefficients
1.0), and one :class:`LevelBucket` per panel width — a vectorized lane
whose tops, belows and contribution slices are contiguous, bucket after
bucket, so a level's rectangles lower to one sparse block
(:func:`repro.exec.fused.build_fused_panels`).

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
from repro.util.flops import supernode_solve_flops
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
class LevelBucket:
    """The vectorized lane of one (level, panel width) pair.

    ``nodes`` lists the level's width-``t`` supernodes — those with
    below-rows first, then the trivial ones, each part ascending.  Their
    tops are contiguous in the level accumulator (``t`` rows per node from
    ``top_lo``, in this order) and the first ``k_below`` of them own
    contiguous below segments from ``below_lo``: ``rep_idx`` is the owner
    position in ``[0, k_below)`` of every stacked below row.  The same
    ``b`` rows, in the same order, are the bucket's slice of the
    contribution arena (from ``contrib_lo``) and of the level's backward
    gather (from ``below_lo - top_total``).
    """

    t: int
    nodes: np.ndarray       # (k,) supernode ids
    k_below: int            # how many leading nodes have below-rows
    top_lo: int             # first accumulator row of the k * t tops
    below_lo: int           # first accumulator row of the stacked belows
    contrib_lo: int         # first contribution-arena row of the same rows
    rep_idx: np.ndarray     # (b,) owner position per stacked below row

    @property
    def k(self) -> int:
        return int(self.nodes.size)

    @property
    def b(self) -> int:
        return int(self.rep_idx.size)


@dataclass(frozen=True, slots=True)
class Level:
    """One fully-packed elimination-tree level of a :class:`LevelProgram`.

    The level accumulator is laid out ``[tops | belows]``, bucket after
    bucket in ascending width.  ``gather_rows`` names, per accumulator
    row, the solution row it stands for: a top's own column, a below
    row's ancestor row.  Its first ``top_total`` entries are where the
    solved tops are written back; the backward sweep gathers the whole
    vector in one ``take``.

    ``replay`` is the level's extend-add as one structure-only CSR
    operator of shape ``(size, n + contrib_total)`` over the fused
    workspace ``[y | contrib]`` (solution rows, then the tree-wide
    contribution arena).  Row ``i`` lists what accumulator row ``i``
    sums: a top row first its own right-hand-side row (column
    ``gather_rows[i]``), then every row its child contributions (columns
    ``n + arena row``) in the plan's (parent ascending, child ascending,
    row ascending) order; every coefficient is exactly 1.0.  scipy's row
    loop starts each row at +0.0 and adds ``1.0 * x`` term by term in
    storage order, so the product is the plan's in-order sum.
    """

    index: int
    size: int
    top_total: int
    gather_rows: np.ndarray
    replay: csr_array
    buckets: tuple[LevelBucket, ...]


@dataclass(frozen=True, slots=True)
class LevelProgram:
    """A flat, vectorized compilation of an :class:`ExecPlan`.

    Per elimination-tree level every supernode panel's position is fixed
    at compile time, so the fused backend executes a level as a handful of
    whole-level and whole-bucket array ops instead of per-node Python
    dispatch.  The program depends only on ``plan.steps`` and
    ``plan.node_level`` — both grain-invariant — so one program serves
    every grain of the structure.

    ``node_top_off``/``node_below_off`` give each supernode's rows inside
    its level's accumulator (-1 where absent); ``contrib_off`` its slice
    of the tree-wide contribution arena, which follows the ``n`` solution
    rows in the fused workspace.  ``max_acc`` (the largest level) sizes
    the backward sweep's gather buffer in the reusable
    :class:`~repro.exec.arena.FusedWorkspace`.
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

    @property
    def nlevels(self) -> int:
        return len(self.levels)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _replay_operator(
    size: int, top_src: np.ndarray, dst: np.ndarray, src: np.ndarray, ncols: int
) -> csr_array:
    """One level's extend-add as a structure-only CSR operator.

    *dst*/*src* list the replay entries (accumulator row, workspace
    column) in the plan's order; every top row ``i`` gets its own
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


def compile_level_program(plan: ExecPlan) -> LevelProgram:
    """Compile *plan* into the flat level program the fused backend runs.

    Per level the supernodes are bucketed by panel width, every bucket a
    vectorized lane (:class:`LevelBucket`), and every child-contribution
    edge of the plan is flattened into the level's ``replay`` operator,
    which keeps, per accumulator row, the plan's ascending-child
    reduction order — so the fused execution is bitwise identical to the
    per-node walker.
    """
    steps = plan.steps
    ns = len(steps)
    node_level = plan.node_level
    nlev = int(node_level.max()) + 1 if ns else 0
    n = max((st.col_hi for st in steps), default=0)

    node_top_off = np.full(ns, -1, dtype=np.int64)
    node_below_off = np.full(ns, -1, dtype=np.int64)
    contrib_off = np.full(ns, -1, dtype=np.int64)
    width = np.array([st.t for st in steps], dtype=np.int64)
    col_lo = np.array([st.col_lo for st in steps], dtype=np.int64)
    # the fused workspace: n solution rows, then the whole contribution arena
    ncols = n + sum(st.n - st.t for st in steps)

    by_level: list[list[int]] = [[] for _ in range(nlev)]
    for s in range(ns):
        by_level[int(node_level[s])].append(s)  # ascending per level

    levels: list[Level] = []
    ccur = 0
    max_acc = 0

    for li in range(nlev):
        nodes = by_level[li]
        # width -> (below-owning nodes, trivial nodes), each ascending
        by_width: dict[int, tuple[list[int], list[int]]] = {}
        for s in nodes:
            st = steps[s]
            by_width.setdefault(st.t, ([], []))[st.n == st.t].append(s)
        # (width, below-owning nodes, all nodes with those first)
        lanes = [(t, own, own + trivial) for t, (own, trivial) in sorted(by_width.items())]

        # --- accumulator layout: every bucket's tops, then every bucket's
        # belows; the contribution arena follows the below order.
        pos = 0
        for t, _, members in lanes:
            for s in members:
                node_top_off[s] = pos
                pos += t
        top_total = pos
        buckets: list[LevelBucket] = []
        for t, owners, members in lanes:
            counts = np.array([steps[s].n - t for s in owners], dtype=np.int64)
            buckets.append(LevelBucket(
                t=t,
                nodes=np.array(members, dtype=np.int64),
                k_below=len(owners),
                top_lo=int(node_top_off[members[0]]),
                below_lo=pos,
                contrib_lo=ccur,
                rep_idx=np.repeat(np.arange(len(owners), dtype=np.int32), counts),
            ))
            for s, nb in zip(owners, counts.tolist()):
                node_below_off[s] = pos
                contrib_off[s] = ccur
                pos += nb
                ccur += nb
        size = pos

        # --- per accumulator row, the solution row it stands for: tops
        # their own columns, belows their ancestor rows ---
        tops = np.concatenate([bkt.nodes for bkt in buckets])
        gather_rows = np.concatenate([
            np.repeat(col_lo[tops] - node_top_off[tops], width[tops]) + np.arange(top_total),
            *(steps[s].below for bkt in buckets for s in bkt.nodes[: bkt.k_below].tolist()),
        ], dtype=np.int64)

        # --- flatten the level's child-contribution edges ---
        edges = [  # parents ascending; children ascend within each
            (s, c, idx)
            for s in nodes
            for c, idx in zip(steps[s].children, steps[s].child_scatter)
            if idx.size
        ]
        lens = np.array([idx.size for _, _, idx in edges], dtype=np.int64)
        parent = np.repeat(np.array([s for s, _, _ in edges], dtype=np.int64), lens)
        child = np.repeat(np.array([c for _, c, _ in edges], dtype=np.int64), lens)
        row = _concat([idx for _, _, idx in edges]).astype(np.int64)
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
            buckets=tuple(buckets),
        ))
        max_acc = max(max_acc, size)

    return LevelProgram(
        levels=tuple(levels),
        node_level=node_level,
        node_top_off=node_top_off,
        node_below_off=node_below_off,
        contrib_off=contrib_off,
        contrib_total=ccur,
        n=n,
        nsuper=ns,
        max_acc=max_acc,
    )
