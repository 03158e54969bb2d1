"""Static schedule certifier for the engine's plans and the fused level programs.

:func:`certify_plan` takes an :class:`~repro.exec.plan.ExecPlan` (and
optionally the :class:`~repro.symbolic.stree.SupernodalTree` it was
built from) and *proves*, without executing anything, the three
properties the engine's docstrings promise:

1. **Race-freedom.**  The elimination tree names the only data that
   crosses from one supernode to another, so the plan's own fields spell
   out every *ordering obligation* as a (writer, reader, rows) triple:
   forward, each entry ``c`` of ``steps[s].children`` writes its
   contribution rows ``below(c)`` for ``s`` to read; backward, ``s``
   reads its solved rows ``steps[s].below`` from the supernodes whose
   column ranges own them.  These are *all* the cross-node conflicts:
   the column ranges tile ``0..n`` (``schedule-coverage-*``), so no two
   nodes share a solution row in the forward sweep and a node's only
   foreign rows in the backward sweep are its below-rows; each
   contribution buffer has one writer and, by
   ``schedule-duplicate-consumer``, one reader; accumulators are
   node-private.  The writer's task must reach the reader's through the
   edges the engine's dependency counting *guarantees*
   (``schedule-race`` when the two are unordered, ``schedule-stale-read``
   when the reader comes first).
2. **Exactly-once coverage.**  The supernode column ranges tile
   ``0..n`` with no overlap and no gap (every solution row is written by
   exactly one node per sweep), and each child contribution buffer is
   consumed by exactly one scatter whose indices map the child's
   below-rows bijectively into the parent's trapezoid.
3. **Reduction-order determinism.**  Every node's child list ascends —
   the fixed reduction order that makes results bitwise identical for
   every worker count — and the certificate digest is a canonical hash
   over the steps, the ordered reduction lists, the scatter indices and
   the task topology, so two runs (any worker counts) can be checked
   for schedule equivalence by comparing two hex strings.

:func:`certify_level_program` certifies the fused backend's
:class:`~repro.exec.plan.LevelProgram` against the
:class:`~repro.symbolic.stree.SupernodalTree` alone, rules prefixed
``schedule-program-``; it never consults a plan.  Under the program's
node levels the certifier derives the one layout a program may have —
per level the nodes in ascending id, tops back to back, then the
belows, the arena following them — and requires the program's offsets,
level extents and maxima to equal it (``-layout``).  It locates every
child's below-rows in its parent's rows itself (``-scatter`` when one
is missing), and compares the gather vectors and replay operators with
what that layout makes them: a replay operator's ``(indptr, indices)``
equal the tree's rows entry for entry (``-scatter``; its top rows'
leading self-entries are ``-gather``'s) and every coefficient is
exactly 1.0.  The level barrier is the program's only ordering device,
so the level order is proved by two vector comparisons
(``-level``): forward, every child sits on a lower level than its
parent; backward, every below-row is solved on a higher level than the
node that gathers it.  The program's digest hashes the arrays the
executor reads, so it depends on no plan and no grain.

Findings use the shared :class:`~repro.verify.findings.Report`
machinery; rules are prefixed ``schedule-``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.symbolic.etree import NO_PARENT
from repro.verify.findings import Report

if TYPE_CHECKING:
    from repro.exec.plan import ExecPlan, LevelProgram
    from repro.symbolic.stree import SupernodalTree

#: Bumped whenever the canonical serialization behind the digest changes.
CERT_SCHEMA = "repro-schedule-cert/2"


@dataclass(frozen=True)
class ScheduleCertificate:
    """The certifier's verdict for one plan or level program.

    ``digest`` is the determinism certificate: equal digests mean equal
    schedules (for a plan: same steps, reduction orders and task
    topology; for a program: same levels, layout and operators), hence
    bitwise-equal results.  ``report`` carries every violated property;
    :attr:`ok` is True iff none.
    """

    digest: str
    report: Report

    @property
    def ok(self) -> bool:
        return self.report.ok


# ------------------------------------------------------------------ digest
def plan_digest(plan: "ExecPlan") -> str:
    """Canonical sha256 over the schedule-defining parts of *plan*.

    Covers: per-step column ranges, below-rows, ordered child
    (reduction) lists and scatter indices; per-task node lists; and the
    task parent topology.  Deliberately excludes the aggregation grain
    and anything runtime-dependent (worker counts never enter), so the
    digest is a pure function of the schedule's semantics.
    """
    h = hashlib.sha256(CERT_SCHEMA.encode())

    def put(values) -> None:
        h.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())

    put([len(plan.steps), len(plan.tasks)])
    for st in plan.steps:
        put([st.s, st.col_lo, st.col_hi, st.t, st.n, len(st.children)])
        put(st.below)
        put(list(st.children))
        for idx in st.child_scatter:
            put([idx.size])
            put(idx)
    for task in plan.tasks:
        put([task.index, task.root, len(task.nodes)])
        put(list(task.nodes))
    put(plan.task_parent)
    return h.hexdigest()


# ------------------------------------------------------- structural checks
def _check_partition(
    plan: "ExecPlan", report: Report, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Each supernode must belong to exactly one task, listed ascending.

    Returns each node's task (``-1``: none) and its place in that task's list.
    """
    task_of = np.full(len(plan.steps), -1, dtype=np.int64)
    place = np.zeros(len(plan.steps), dtype=np.int64)
    for ti, task in enumerate(plan.tasks):
        if list(task.nodes) != sorted(task.nodes):
            report.add(
                "schedule-task-partition",
                f"task {ti} lists nodes {list(task.nodes)} out of ascending order",
                location=f"{name}/task {ti}",
            )
        for k, s in enumerate(task.nodes):
            if task_of[s] != -1:
                report.add(
                    "schedule-task-partition",
                    f"supernode {s} appears in tasks {task_of[s]} and {ti}",
                    location=f"{name}/task {ti}",
                )
            task_of[s], place[s] = ti, k
    missing = np.flatnonzero(task_of == -1).tolist()
    if missing:
        report.add(
            "schedule-task-partition",
            f"supernodes {missing} belong to no task — they would never run",
            location=f"{name}/tasks",
        )
    return task_of, place


def _check_coverage(plan: "ExecPlan", report: Report, name: str, n: int) -> bool:
    """The column ranges must tile ``[0, n)`` with no overlap and no gap.

    Returns whether they do: the ordering obligations rest on it.
    """
    before = len(report)
    ranges = sorted(
        (st.col_lo, st.col_hi, st.s) for st in plan.steps if st.col_hi > st.col_lo
    )
    cursor = 0
    for lo, hi, s in ranges:
        if lo < cursor:
            report.add(
                "schedule-coverage-overlap",
                f"columns [{lo}, {min(cursor, hi)}) are written by supernode {s} "
                "and by an earlier supernode — not exactly-once",
                location=f"{name}/supernode {s}",
            )
        elif lo > cursor:
            report.add(
                "schedule-coverage-gap",
                f"columns [{cursor}, {lo}) are owned by no supernode — never solved",
                location=f"{name}/columns",
            )
        cursor = max(cursor, hi)
    if cursor < n:
        report.add(
            "schedule-coverage-gap",
            f"columns [{cursor}, {n}) are owned by no supernode — never solved",
            location=f"{name}/columns",
        )
    return len(report) == before


def _check_scatters(plan: "ExecPlan", report: Report, name: str) -> None:
    """Scatter indices must map each child's below-rows bijectively."""
    consumed: dict[int, int] = {}
    for st in plan.steps:
        loc = f"{name}/supernode {st.s}"
        rows = np.concatenate(
            [np.arange(st.col_lo, st.col_hi, dtype=np.int64), st.below]
        )
        if st.t != st.col_hi - st.col_lo or st.n != rows.size:
            report.add(
                "schedule-step-shape",
                f"supernode {st.s} declares t={st.t}, n={st.n} but its column "
                f"range and below-rows give t={st.col_hi - st.col_lo}, "
                f"n={rows.size}",
                location=loc,
            )
        if len(st.children) != len(st.child_scatter):
            report.add(
                "schedule-scatter-arity",
                f"supernode {st.s} has {len(st.children)} children but "
                f"{len(st.child_scatter)} scatter index arrays",
                location=loc,
            )
            continue
        for c, idx in zip(st.children, st.child_scatter):
            if c in consumed:
                report.add(
                    "schedule-duplicate-consumer",
                    f"contribution of supernode {c} is scattered by both "
                    f"supernode {consumed[c]} and supernode {st.s} — "
                    "it must be consumed exactly once",
                    location=loc,
                )
            consumed[c] = st.s
            child_below = plan.steps[c].below
            if idx.size != child_below.size:
                report.add(
                    "schedule-scatter-mismatch",
                    f"scatter for child {c} has {idx.size} indices but the "
                    f"child contributes {child_below.size} rows",
                    location=loc,
                )
                continue
            if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= rows.size):
                report.add(
                    "schedule-scatter-bounds",
                    f"scatter for child {c} indexes row {int(idx.max())} of a "
                    f"{rows.size}-row accumulator",
                    location=loc,
                )
                continue
            if idx.size >= 2 and np.any(np.diff(idx) <= 0):
                dup = int(idx[np.flatnonzero(np.diff(idx) <= 0)[0] + 1])
                report.add(
                    "schedule-scatter-overlap",
                    f"scatter for child {c} targets accumulator row {dup} "
                    "more than once (or out of order) — the fancy-indexed "
                    "`acc[idx] += u` would drop a contribution",
                    location=loc,
                )
                continue
            if not np.array_equal(rows[idx], child_below):
                bad = int(np.flatnonzero(rows[idx] != child_below)[0])
                report.add(
                    "schedule-scatter-mismatch",
                    f"scatter for child {c} maps its below-row "
                    f"{int(child_below[bad])} to parent row {int(rows[idx][bad])}"
                    " — the contribution lands on the wrong equation",
                    location=loc,
                )
    # Every node with below-rows produces a contribution that someone
    # must consume (forward) — except roots of the forest, which cannot
    # have below-rows in a well-formed factor.
    for st in plan.steps:
        if st.below.size and st.s not in consumed:
            report.add(
                "schedule-unconsumed-contrib",
                f"supernode {st.s} produces a {st.below.size}-row contribution "
                "that no scatter consumes — its updates are lost",
                location=f"{name}/supernode {st.s}",
            )


def _check_reduction_order(plan: "ExecPlan", report: Report, name: str) -> None:
    """Child lists must strictly ascend — the canonical reduction order."""
    for st in plan.steps:
        ch = list(st.children)
        if ch != sorted(set(ch)):
            report.add(
                "schedule-reduction-order",
                f"supernode {st.s} reduces children in order {ch} — not "
                "strictly ascending, so the floating-point sum depends on "
                "the plan, not on the structure",
                location=f"{name}/supernode {st.s}",
            )


def _check_tree(plan: "ExecPlan", stree: "SupernodalTree", report: Report, name: str) -> None:
    """The plan's steps must agree with the assembly tree they claim to run."""
    if len(plan.steps) != stree.nsuper:
        report.add(
            "schedule-tree-mismatch",
            f"plan has {len(plan.steps)} steps but the tree has "
            f"{stree.nsuper} supernodes",
            location=f"{name}/steps",
        )
        return
    for st in plan.steps:
        sn = stree.supernodes[st.s]
        loc = f"{name}/supernode {st.s}"
        if (st.col_lo, st.col_hi) != (sn.col_lo, sn.col_hi):
            report.add(
                "schedule-tree-mismatch",
                f"supernode {st.s} covers columns [{st.col_lo}, {st.col_hi}) "
                f"in the plan but [{sn.col_lo}, {sn.col_hi}) in the tree",
                location=loc,
            )
        if not np.array_equal(st.below, sn.below):
            report.add(
                "schedule-tree-mismatch",
                f"supernode {st.s}'s below-rows differ between plan and tree",
                location=loc,
            )
        if set(st.children) != set(stree.children[st.s]):
            report.add(
                "schedule-tree-mismatch",
                f"supernode {st.s} scatters children {sorted(st.children)} "
                f"but the assembly tree gives {sorted(stree.children[st.s])}",
                location=loc,
            )


# ------------------------------------------------------ happens-before
def _guaranteed_reachability(
    ntasks: int,
    ndeps: Sequence[int],
    dependents: Sequence[Sequence[int]],
    report: Report,
    name: str,
    phase: str,
) -> np.ndarray | None:
    """Transitive closure of the *guaranteed* dependency edges.

    The engine starts task ``d`` when its counter — initialized to
    ``ndeps[d]`` — reaches zero.  An edge ``i -> d`` therefore orders
    ``i`` before ``d`` only if the counter equals the true in-degree;
    a smaller counter lets ``d`` fire after a proper subset of its
    predecessors, so *no* in-edge is guaranteed, and a larger one means
    ``d`` (and everything after it) never runs.  Returns the boolean
    reachability matrix, or ``None`` when the guaranteed edges contain a
    cycle (reported; race analysis is skipped — nothing would run).
    """
    loc = f"{name}/{phase}"
    in_deg = [0] * ntasks
    for i in range(ntasks):
        for d in dependents[i]:
            in_deg[d] += 1
    guaranteed = [True] * ntasks
    for d in range(ntasks):
        if ndeps[d] == in_deg[d]:
            continue
        guaranteed[d] = False
        if ndeps[d] > in_deg[d]:
            report.add(
                "schedule-dep-count",
                f"[{phase}] task {d} waits for {ndeps[d]} predecessors but "
                f"only {in_deg[d]} tasks signal it — it would stall forever",
                location=loc,
            )
        else:
            report.add(
                "schedule-dep-count",
                f"[{phase}] task {d} waits for only {ndeps[d]} of its "
                f"{in_deg[d]} predecessors — it can start before the rest "
                "finish, so none of its dependency edges order anything",
                location=loc,
            )

    # Kahn order over every edge (guaranteed or not) to detect cycles and
    # to get a topological sequence for closure propagation.
    counts = list(in_deg)
    order = [i for i in range(ntasks) if counts[i] == 0]
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for d in dependents[i]:
            counts[d] -= 1
            if counts[d] == 0:
                order.append(d)
    if len(order) != ntasks:
        stuck = sorted(set(range(ntasks)) - set(order))
        report.add(
            "schedule-cycle",
            f"[{phase}] tasks {stuck} form a dependency cycle — the engine "
            "would stall before running them",
            location=loc,
        )
        return None

    reach = np.zeros((ntasks, ntasks), dtype=bool)
    np.fill_diagonal(reach, True)
    for i in reversed(order):
        for d in dependents[i]:
            if guaranteed[d]:
                reach[i] |= reach[d]
    return reach


def format_index_set(rows: np.ndarray) -> str:
    """Compact run-length rendering of a sorted index set: ``[3..7, 12]``."""
    runs = np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1)
    return "[" + ", ".join(
        f"{r[0]}..{r[-1]}" if r.size > 1 else f"{r[0]}" for r in runs if r.size
    ) + "]"


#: One sweep's obligations as parallel sequences: node ``writer[k]`` must
#: finish before node ``reader[k]`` starts, which reads ``rows[k]`` from it.
Obligations = tuple[np.ndarray, np.ndarray, list[np.ndarray]]


def _ordering_obligations(plan: "ExecPlan", n: int) -> tuple[Obligations, Obligations]:
    """Every cross-node (writer, reader, rows) triple of the two sweeps.

    Assumes the column ranges tile ``[0, n)`` (the module docstring says
    why nothing else can conflict then); independent of how nodes are
    grouped into tasks or levels.
    """
    steps = plan.steps
    # Forward: a child's contribution rows go to the node that lists it.
    handoffs = [(c, st.s) for st in steps for c in st.children if steps[c].below.size]
    child, parent = np.array(handoffs, dtype=np.int64).reshape(-1, 2).T
    forward = (child, parent, [steps[c].below for c, _ in handoffs])

    # Backward, all gathers at once: tag every below-row with its reader
    # and its owner, then cut the stream wherever either changes.  (A node
    # with no columns solves nothing, so it never gathers.)
    gathers = [st for st in steps if st.t and st.below.size]
    if not gathers:
        nobody = np.empty(0, dtype=np.int64)
        return forward, (nobody, nobody, [])
    rows = np.concatenate([st.below for st in gathers])
    reader = np.repeat([st.s for st in gathers], [st.below.size for st in gathers])
    owner = np.full(max(n, int(rows.max()) + 1), -1, dtype=np.int64)  # -1: nobody's row
    for st in steps:
        owner[st.col_lo:st.col_hi] = st.s
    writer = owner[rows]
    cuts = np.flatnonzero((np.diff(reader) != 0) | (np.diff(writer) != 0)) + 1
    lo = np.concatenate(([0], cuts))
    hi = np.concatenate((cuts, [rows.size]))
    owned = writer[lo] >= 0
    lo, hi = lo[owned], hi[owned]
    backward = (
        writer[lo], reader[lo], [rows[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
    )
    return forward, backward


def _check_orderings(
    phase: str,
    obligations: Obligations,
    unit: np.ndarray,
    pos: np.ndarray,
    ndeps: Sequence[int],
    dependents: Sequence[Sequence[int]],
    report: Report,
    name: str,
) -> None:
    """Prove the writer of every obligation of one sweep runs first.

    ``unit[s]`` is node ``s``'s plan task (``-1``: in none) and
    ``pos[s]`` its program order inside that task; cross-task order
    comes from the guaranteed dependency edges alone.
    """
    reach = _guaranteed_reachability(len(ndeps), ndeps, dependents, report, name, phase)
    if reach is None:
        return
    w, r, rows = obligations
    uw, ur = unit[w], unit[r]
    # A node in no unit is schedule-task-partition's finding, not ours.
    ordered = np.where(uw == ur, pos[w] <= pos[r], reach[uw, ur])
    for k in np.flatnonzero((uw >= 0) & (ur >= 0) & ~ordered):
        a, b = int(uw[k]), int(ur[k])
        rule = "schedule-stale-read"
        if a == b:
            how = f"within task {a} the reader runs first, on stale values"
        elif reach[b, a]:
            how = f"task {b} is ordered *before* task {a}"
        else:
            rule, how = "schedule-race", f"tasks {min(a, b)} and {max(a, b)} are unordered"
        report.add(
            rule,
            f"[{phase}] {how}: supernode {r[k]} (task {b}) reads rows "
            f"{format_index_set(rows[k])} that supernode {w[k]} (task {a}) writes",
            location=f"{name}/{phase}",
        )


# ------------------------------------------------------------------ public
def certify_plan(
    plan: "ExecPlan",
    stree: "SupernodalTree | None" = None,
    *,
    name: str = "plan",
) -> ScheduleCertificate:
    """Statically certify one execution plan; never raises on bad plans.

    Runs every structural proof (task partition, exactly-once column
    coverage, scatter bijectivity, canonical reduction order, optional
    assembly-tree cross-check), checks both sweeps' ordering obligations
    against the task graph's happens-before and computes the determinism
    digest.  Every task accesses all columns of the right-hand-side
    block, so verdict and digest hold for every right-hand-side width.

    Callers that want fail-fast semantics use
    ``certify_plan(...).report.raise_if_errors()``.
    """
    report = Report()
    n = stree.n if stree is not None else max(
        (st.col_hi for st in plan.steps), default=0
    )
    task_of, place = _check_partition(plan, report, name)
    tiles = _check_coverage(plan, report, name, n)
    _check_scatters(plan, report, name)
    _check_reduction_order(plan, report, name)
    if stree is not None:
        _check_tree(plan, stree, report, name)

    if tiles:
        # Program order inside a task: the forward sweep walks the task's
        # nodes in list order, the backward sweep in reverse.
        fwd, bwd = _ordering_obligations(plan, n)
        _check_orderings("forward", fwd, task_of, place, *plan.forward_deps(), report, name)
        _check_orderings("backward", bwd, task_of, -place, *plan.backward_deps(), report, name)
    return ScheduleCertificate(digest=plan_digest(plan), report=report)


# ------------------------------------------------------- level programs
def _program_digest(program: "LevelProgram") -> str:
    """Canonical sha256 over the arrays the fused executor reads.

    Covers the node levels and offsets, every level's extents, gather
    vector and replay structure — one update per array.  A pure function
    of the program, hence (for a compiled program) of the tree.
    """
    h = hashlib.sha256(CERT_SCHEMA.encode())

    def put(values) -> None:
        h.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())

    levels = program.levels
    put([program.nsuper, len(levels), program.n])
    for vector in (program.node_level, program.node_top_off, program.node_below_off,
                   program.contrib_off):
        put(vector)
    for extent in ("size", "top_total", "arena_lo"):
        put([getattr(lvl, extent) for lvl in levels])
    for lvl in levels:
        op = lvl.replay.tocsr()
        put(lvl.gather_rows)
        put(op.indptr)
        put(op.indices)
    return h.hexdigest()


def _check_program(
    program: "LevelProgram", stree: "SupernodalTree", report: Report, name: str
) -> None:
    """Judge the program against the tree it claims to compile.

    The fused executor trusts the program's index vectors and replay
    operators blindly — this check derives, from the tree's column ranges,
    row lists and parents under the program's node levels alone, the one
    layout a program may have and what every gather vector and operator
    must then contain, and requires equality, so a mutated layout,
    operator or gather can never certify.  Nothing here consults the
    compiler, a plan or the steps' scatter indices: the compiler's output
    is judged against the tree, not against itself.
    """
    ns = stree.nsuper
    loc0 = f"{name}/program"
    lvl_of = np.asarray(program.node_level)
    nlev = len(program.levels)
    if program.nsuper != ns or lvl_of.shape != (ns,) or np.any((lvl_of < 0) | (lvl_of >= nlev)):
        report.add(
            "schedule-program-shape",
            f"program levels {program.nsuper} supernodes in {nlev} levels but the "
            f"tree has {ns} supernodes, each of which must sit in a level that exists",
            location=loc0,
        )
        return

    # Every (node, row) pair of the tree, node after node: the node's own
    # columns, then its ascending below-rows.
    width, height = stree.widths, stree.heights
    below_count = height - width
    n = stree.n
    rows = np.concatenate([np.empty(0, np.int64), *(sn.rows for sn in stree.supernodes)])
    node = np.repeat(np.arange(ns), height)
    local = np.arange(rows.size) - (np.cumsum(height) - height)[node]
    below = local >= width[node]

    # --- the level barrier is the program's only ordering device: forward,
    # every child's contribution is written on a level below its parent's;
    # backward, every below-row a node gathers is solved on a level above.
    parent = stree.parent
    kids = np.flatnonzero(parent != NO_PARENT)
    for c in kids[lvl_of[kids] >= lvl_of[parent[kids]]].tolist():
        report.add(
            "schedule-program-level",
            f"[forward] child {c} (level {int(lvl_of[c])}) is not strictly below "
            f"its parent {int(parent[c])} (level {int(lvl_of[parent[c]])}) — the "
            "level barrier cannot order their contribution hand-off",
            location=loc0,
        )
    reader, solved = node[below], rows[below]
    writer = np.repeat(np.arange(ns), width)[solved]
    late = lvl_of[writer] <= lvl_of[reader]
    for r, w in sorted(set(zip(reader[late].tolist(), writer[late].tolist()))):
        report.add(
            "schedule-program-level",
            f"[backward] supernode {r} (level {int(lvl_of[r])}) gathers rows "
            f"{format_index_set(solved[(reader == r) & (writer == w)])} that supernode "
            f"{w} solves on level {int(lvl_of[w])} — not strictly above it",
            location=loc0,
        )

    # --- the canonical layout: per level the nodes in ascending id, their
    # tops back to back, then the belows of those that have any; the
    # contribution arena follows the n solution rows and the belows, level
    # after level.
    order = np.argsort(lvl_of, kind="stable")
    tops = np.bincount(lvl_of, width, nlev).astype(np.int64)
    belows = np.bincount(lvl_of, below_count, nlev).astype(np.int64)
    sizes, arena_lo = tops + belows, np.cumsum(belows) - belows
    top_off = np.empty(ns, dtype=np.int64)
    top_off[order] = np.cumsum(width[order]) - width[order]
    top_off -= (np.cumsum(tops) - tops)[lvl_of]  # each level's tops start at 0
    arena = np.empty(ns, dtype=np.int64)
    arena[order] = np.cumsum(below_count[order]) - below_count[order]
    has_below = below_count > 0
    contrib_off = np.where(has_below, arena, -1)
    below_off = np.where(has_below, tops[lvl_of] + arena - arena_lo[lvl_of], -1)
    levels = program.levels
    for what, unit, got, want in (
        ("node_top_off", "supernode", program.node_top_off, top_off),
        ("node_below_off", "supernode", program.node_below_off, below_off),
        ("contrib_off", "supernode", program.contrib_off, contrib_off),
        ("index", "level", [lvl.index for lvl in levels], np.arange(nlev)),
        ("size", "level", [lvl.size for lvl in levels], sizes),
        ("top_total", "level", [lvl.top_total for lvl in levels], tops),
        ("arena_lo", "level", [lvl.arena_lo for lvl in levels], arena_lo),
        ("n", "program", [program.n], [n]),
        ("contrib_total", "program", [program.contrib_total], [int(belows.sum())]),
        ("max_acc", "program", [program.max_acc], [int(sizes.max(initial=0))]),
    ):
        got, want = np.asarray(got).tolist(), np.asarray(want).tolist()
        if got != want:
            k = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), len(want))
            report.add(
                "schedule-program-layout",
                f"{what} of {unit} {k} departs from the node-order layout "
                "the tree gives — the operators would be packed for another layout",
                location=loc0,
            )

    # --- every pair's row in the level accumulators laid end to end; per
    # accumulator row, the solution row it stands for: each panel's own
    # columns for its tops, its below-rows for its belows.
    start = np.cumsum(sizes) - sizes
    acc = start[lvl_of[node]] + local + np.where(below, (below_off - width)[node], top_off[node])
    gather = np.empty(rows.size, dtype=np.int64)
    gather[acc] = rows

    # --- each child's below-rows located in its parent's rows, with one
    # lookup over all (parent, row) keys.
    stride = int(rows.max(initial=-1)) + 1
    keys = node * stride + rows
    hands = below & (parent[node] != NO_PARENT)
    child = node[hands]
    want = parent[child] * stride + rows[hands]
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    found = keys[at] == want
    for c in np.unique(child[~found]).tolist():
        report.add(
            "schedule-program-scatter",
            f"supernode {c}'s below-rows are not all rows of its parent "
            f"{int(parent[c])} — its contribution has nowhere to land",
            location=f"{name}/supernode {c}",
        )

    # --- the replay operators, end to end: every top row first reads its
    # own right-hand-side row, then every row its child contributions in
    # the tree's (parent ascending, child ascending, row ascending) order.
    dst = np.concatenate((acc[~below], acc[at[found]]))
    src = np.concatenate((
        rows[~below],
        (n + contrib_off[child] + local[hands] - width[child])[found],
    ))
    exp_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=rows.size), out=exp_ptr[1:])
    exp_idx = src[np.argsort(dst, kind="stable")]
    ncols = n + int(belows.sum())

    for li, lvl in enumerate(levels):
        loc = f"{name}/program level {li}"
        lo, size, tt = int(start[li]), int(sizes[li]), int(tops[li])
        if not np.array_equal(lvl.gather_rows, gather[lo:lo + size]):
            report.add(
                "schedule-program-gather",
                "gather vector does not name each panel's own columns for its "
                "tops and its below-rows for its belows — solved tops would be "
                "written to, or belows fetched from, the wrong rows",
                location=loc,
            )

        ptr = exp_ptr[lo:lo + size + 1]
        idx = exp_idx[ptr[0]:ptr[-1]]
        ptr = ptr - ptr[0]
        op = lvl.replay
        if op.shape != (size, ncols):
            report.add(
                "schedule-program-workspace",
                f"replay operator is {op.shape[0]} x {op.shape[1]}, not "
                f"{size} x {ncols} (the level over the [y | contrib] workspace)",
                location=loc,
            )
        elif (
            op.format != "csr"
            or not np.array_equal(op.indptr, ptr)
            or op.indices.size != idx.size
        ):
            report.add(
                "schedule-program-scatter",
                "replay operator rows do not hold the tree's contribution "
                "entries — a contribution would be lost, doubled or misrouted",
                location=loc,
            )
        else:
            self_at = ptr[:tt]  # each top row's first entry
            if not np.array_equal(op.indices[self_at], idx[self_at]):
                report.add(
                    "schedule-program-gather",
                    "replay operator's top rows do not start from each "
                    "panel's own right-hand-side rows",
                    location=loc,
                )
            replayed = np.ones(idx.size, dtype=bool)
            replayed[self_at] = False
            if not np.array_equal(op.indices[replayed], idx[replayed]):
                report.add(
                    "schedule-program-scatter",
                    "replay operator differs from the tree's deterministic "
                    "(parent-ascending, child-ascending) contribution replay — "
                    "results would depend on the program, not the structure",
                    location=loc,
                )
            if op.data.size != idx.size or np.any(op.data != 1.0):
                report.add(
                    "schedule-program-scatter",
                    "replay operator has a coefficient other than exactly 1.0 "
                    "— the extend-add would scale a contribution",
                    location=loc,
                )


def certify_level_program(
    program: "LevelProgram",
    stree: "SupernodalTree",
    *,
    name: str = "fused",
) -> ScheduleCertificate:
    """Statically certify a fused level program against its tree; never raises.

    The program's layout must equal the one derived from the tree under
    the program's node levels, and its replay operators and gather vectors
    what that layout makes them; every hand-off must cross a level
    barrier the right way — a child's contribution upward, an ancestor's
    solved rows downward (rules ``schedule-program-*``).  The digest
    hashes the arrays the executor reads (see ``_program_digest``).
    """
    report = Report()
    _check_program(program, stree, report, name)
    return ScheduleCertificate(digest=_program_digest(program), report=report)


__all__ = [
    "CERT_SCHEMA",
    "ScheduleCertificate",
    "certify_level_program",
    "certify_plan",
    "plan_digest",
]
