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

Plans depend only on the symbolic structure (never on numeric values), so
they are cached per structure by :mod:`repro.exec.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    flops1: int


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

    # Solve flops per RHS of each node and of each whole subtree.
    flops1 = np.array(
        [supernode_solve_flops(sn.n, sn.t, 1) for sn in stree.supernodes], dtype=np.int64
    )
    subtree = flops1.copy()
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
        tasks.append(
            ExecTask(
                index=ti,
                root=r,
                nodes=tuple(nodes),
                flops1=int(flops1[nodes].sum()),
            )
        )

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
class LevelOnes:
    """The vectorized width-1 lane of one level.

    ``nodes`` lists the level's ``t == 1`` supernodes — those with
    below-rows first, then the trivial ones, each part ascending — so the
    level's width-1 tops occupy accumulator rows ``[0, k)`` in this order
    and the first ``k_below`` of them own contiguous below segments.
    """

    nodes: np.ndarray       # (k,) supernode ids
    cols: np.ndarray        # (k,) the single global column of each node
    k_below: int            # how many leading nodes have below-rows
    seg_starts: np.ndarray  # (k_below,) segment starts into the stacked belows
    rep_idx: np.ndarray     # (b,) owner position in [0, k) per below row
    below_rows: np.ndarray  # (b,) global row of each stacked below entry
    contrib_lo: int         # start of the lane's contribution slice (-1 if b == 0)

    @property
    def k(self) -> int:
        return int(self.nodes.size)

    @property
    def b(self) -> int:
        return int(self.below_rows.size)


@dataclass(frozen=True, slots=True)
class LevelGroup:
    """One width bucket (``t > 1``) of a level.

    Arrays are aligned with ``nodes`` (ascending supernode ids): per node
    the column base, its top/below offsets in the level accumulator, its
    below-row count, its contribution-arena offset and its offset into the
    level's backward gather buffer (-1 where a node has no below-rows).
    """

    t: int
    nodes: np.ndarray
    col_lo: np.ndarray
    top_off: np.ndarray
    nb: np.ndarray
    below_off: np.ndarray
    contrib_off: np.ndarray
    gather_off: np.ndarray


@dataclass(frozen=True, slots=True)
class Level:
    """One fully-packed elimination-tree level of a :class:`LevelProgram`.

    The level accumulator is laid out ``[tops | belows]``: width-1 tops at
    rows ``[0, k1)``, group tops following, then all below blocks.
    ``top_src`` gathers the right-hand-side rows of every top in one
    ``np.take``; ``scatter_dst``/``scatter_src`` replay every child
    contribution of the level in (parent ascending, child ascending,
    row ascending) order through one ``np.add.at`` — the plan's
    deterministic reduction order, flattened.  ``gather_rows`` drives the
    backward sweep's single gather of already-solved ancestor entries.
    """

    index: int
    size: int
    top_total: int
    top_src: np.ndarray
    scatter_dst: np.ndarray
    scatter_src: np.ndarray
    gather_rows: np.ndarray
    ones: LevelOnes | None
    groups: tuple[LevelGroup, ...]


@dataclass(frozen=True, slots=True)
class LevelProgram:
    """A flat, vectorized compilation of an :class:`ExecPlan`.

    Per elimination-tree level every supernode panel's position is fixed
    at compile time, so the fused backend executes a level as a handful of
    whole-level array ops instead of per-node Python dispatch.  The
    program depends only on ``plan.steps`` and ``plan.node_level`` — both
    grain-invariant — so one program serves every grain of the structure.

    ``node_top_off``/``node_below_off`` give each supernode's rows inside
    its level's accumulator (-1 where absent); ``contrib_off`` its slice
    of the tree-wide contribution arena.  The ``max_*`` fields size the
    reusable :class:`~repro.exec.arena.FusedWorkspace` buffers.
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
    max_gather: int
    max_rep: int
    max_top: int
    max_dot: int
    max_wk: int

    @property
    def nlevels(self) -> int:
        return len(self.levels)


def compile_level_program(plan: ExecPlan) -> LevelProgram:
    """Compile *plan* into the flat level program the fused backend runs.

    Layout per level: width-1 nodes form a vectorized lane (tops at rows
    ``[0, k1)``), wider nodes are bucketed by panel width, and every
    child-contribution edge of the plan is flattened into one pair of
    int64 gather/scatter vectors preserving the plan's ascending-child
    reduction order — so the fused execution is bitwise identical to the
    per-node engine.
    """
    steps = plan.steps
    ns = len(steps)
    node_level = plan.node_level
    nlev = int(node_level.max()) + 1 if ns else 0
    n = max((st.col_hi for st in steps), default=0)

    node_top_off = np.full(ns, -1, dtype=np.int64)
    node_below_off = np.full(ns, -1, dtype=np.int64)
    contrib_off = np.full(ns, -1, dtype=np.int64)

    by_level: list[list[int]] = [[] for _ in range(nlev)]
    for s in range(ns):
        by_level[int(node_level[s])].append(s)  # ascending per level

    levels: list[Level] = []
    ccur = 0
    max_acc = max_gather = max_rep = max_top = max_dot = max_wk = 0

    for li in range(nlev):
        nodes = by_level[li]
        ones_wb = [s for s in nodes if steps[s].t == 1 and steps[s].n > 1]
        ones_nb0 = [s for s in nodes if steps[s].t == 1 and steps[s].n == 1]
        ones_order = ones_wb + ones_nb0
        widths = sorted({steps[s].t for s in nodes if steps[s].t > 1})
        buckets = [(t, [s for s in nodes if steps[s].t == t]) for t in widths]

        # --- accumulator layout: tops first (width-1 lane, then buckets) ---
        pos = 0
        for s in ones_order:
            node_top_off[s] = pos
            pos += 1
        k1 = pos
        for t, bnodes in buckets:
            for s in bnodes:
                node_top_off[s] = pos
                pos += t
        top_total = pos

        # --- then belows, in the same node order ---
        seg_counts = []
        for s in ones_wb:
            node_below_off[s] = pos
            pos += steps[s].n - 1
            seg_counts.append(steps[s].n - 1)
        b1 = pos - top_total
        for t, bnodes in buckets:
            for s in bnodes:
                nb = steps[s].n - t
                if nb:
                    node_below_off[s] = pos
                    pos += nb
        size = pos

        # --- contribution arena slices, same order as the below layout ---
        ones_contrib_lo = ccur if b1 else -1
        for s in ones_wb:
            contrib_off[s] = ccur
            ccur += steps[s].n - 1
        group_tuples: list[LevelGroup] = []
        gpos = b1  # backward gather: width-1 belows first, then buckets
        for t, bnodes in buckets:
            g_top, g_nb, g_bel, g_con, g_gat = [], [], [], [], []
            for s in bnodes:
                nb = steps[s].n - t
                g_top.append(node_top_off[s])
                g_nb.append(nb)
                g_bel.append(node_below_off[s] if nb else -1)
                if nb:
                    contrib_off[s] = ccur
                    g_con.append(ccur)
                    ccur += nb
                    g_gat.append(gpos)
                    gpos += nb
                else:
                    g_con.append(-1)
                    g_gat.append(-1)
                max_wk = max(max_wk, nb, t)
            group_tuples.append(LevelGroup(
                t=t,
                nodes=np.array(bnodes, dtype=np.int64),
                col_lo=np.array([steps[s].col_lo for s in bnodes], dtype=np.int64),
                top_off=np.array(g_top, dtype=np.int64),
                nb=np.array(g_nb, dtype=np.int64),
                below_off=np.array(g_bel, dtype=np.int64),
                contrib_off=np.array(g_con, dtype=np.int64),
                gather_off=np.array(g_gat, dtype=np.int64),
            ))
        # --- one gather feeding every top of the level ---
        src_cols = [np.array([steps[s].col_lo for s in ones_order], dtype=np.int64)]
        for t, bnodes in buckets:
            src_cols.extend(
                np.arange(steps[s].col_lo, steps[s].col_hi, dtype=np.int64)
                for s in bnodes
            )
        top_src = np.concatenate(src_cols)

        # --- flatten the level's child-contribution edges ---
        dst_parts, src_parts = [], []
        for s in nodes:  # parents ascending; children ascend within each
            st = steps[s]
            for c, idx in zip(st.children, st.child_scatter):
                nbc = steps[c].n - steps[c].t
                if not nbc:
                    continue
                idx64 = idx.astype(np.int64)
                dst_parts.append(np.where(
                    idx64 < st.t,
                    node_top_off[s] + idx64,
                    node_below_off[s] + idx64 - st.t,
                ))
                src_parts.append(contrib_off[c] + np.arange(nbc, dtype=np.int64))
        scatter_dst = (np.concatenate(dst_parts) if dst_parts
                       else np.empty(0, dtype=np.int64))
        scatter_src = (np.concatenate(src_parts) if src_parts
                       else np.empty(0, dtype=np.int64))

        # --- backward gather rows: width-1 belows, then bucket belows ---
        gat_parts = [steps[s].below.astype(np.int64) for s in ones_wb]
        for t, bnodes in buckets:
            gat_parts.extend(
                steps[s].below.astype(np.int64) for s in bnodes if steps[s].n > t
            )
        gather_rows = (np.concatenate(gat_parts) if gat_parts
                       else np.empty(0, dtype=np.int64))

        ones = None
        if ones_order:
            counts = np.array(seg_counts, dtype=np.int64)
            ones = LevelOnes(
                nodes=np.array(ones_order, dtype=np.int64),
                cols=np.array([steps[s].col_lo for s in ones_order], dtype=np.int64),
                k_below=len(ones_wb),
                seg_starts=(np.concatenate(([0], np.cumsum(counts)[:-1]))
                            if len(ones_wb) else np.empty(0, dtype=np.int64)
                            ).astype(np.intp),
                rep_idx=np.repeat(np.arange(len(ones_wb), dtype=np.int64), counts),
                below_rows=(np.concatenate(
                    [steps[s].below.astype(np.int64) for s in ones_wb])
                    if ones_wb else np.empty(0, dtype=np.int64)),
                contrib_lo=ones_contrib_lo,
            )
            max_rep = max(max_rep, b1)
            max_dot = max(max_dot, len(ones_wb))

        levels.append(Level(
            index=li,
            size=size,
            top_total=top_total,
            top_src=top_src,
            scatter_dst=scatter_dst,
            scatter_src=scatter_src,
            gather_rows=gather_rows,
            ones=ones,
            groups=tuple(group_tuples),
        ))
        max_acc = max(max_acc, size)
        max_gather = max(max_gather, int(scatter_src.size), int(gather_rows.size))
        max_top = max(max_top, k1, *(t for t, _ in buckets), 0)

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
        max_gather=max_gather,
        max_rep=max_rep,
        max_top=max_top,
        max_dot=max_dot,
        max_wk=max_wk,
    )
