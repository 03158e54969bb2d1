"""Static schedule certifier for the shared-memory execution plans.

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

:func:`certify_level_program` extends the proof to the fused backend's
:class:`~repro.exec.plan.LevelProgram`: the program's flat layout and
operators (accumulator layout, one lane per (level, width) bucket, the
per-level replay operator, the merged gather vector) are decoded back
against the plan's steps — rules prefixed ``schedule-program-``; for a
replay operator: its ``(indptr, indices)`` equal the plan's rows entry
for entry (``-scatter``; its top rows' leading self-entries are
``-gather``'s) and every coefficient is exactly 1.0 — and the same
obligations are checked against the level chain, each node standing in
its ``program.node_level``.  A
certified program earns its plan's digest: the fused backend provably
executes the plan's schedule.

Findings use the shared :class:`~repro.verify.findings.Report`
machinery; rules are prefixed ``schedule-``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.verify.findings import Report

if TYPE_CHECKING:
    from repro.exec.plan import ExecPlan, LevelProgram
    from repro.symbolic.stree import SupernodalTree

#: Bumped whenever the canonical serialization behind the digest changes.
CERT_SCHEMA = "repro-schedule-cert/1"


@dataclass(frozen=True)
class ScheduleCertificate:
    """The certifier's verdict for one plan.

    ``digest`` is the determinism certificate: equal digests mean equal
    schedules (same steps, same reduction orders, same task topology),
    hence bitwise-equal results regardless of worker count.  ``report``
    carries every violated property; :attr:`ok` is True iff none.
    """

    digest: str
    report: Report
    nsuper: int
    ntasks: int

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

    ``unit[s]`` is node ``s``'s scheduling unit (plan task, or level of a
    level program; ``-1``: in none) and ``pos[s]`` its program order
    inside that unit; cross-unit order comes from the guaranteed
    dependency edges alone.
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
def _certify_plan_orderings(
    plan: "ExecPlan", stree: "SupernodalTree | None", name: str
) -> tuple[ScheduleCertificate, tuple[Obligations, Obligations] | None]:
    """:func:`certify_plan`, also handing back the ordering obligations.

    :func:`certify_level_program` re-checks them against the level chain.
    ``None`` when the column ranges do not tile (already reported): the
    ordering check is then skipped, as it is on a dependency cycle.
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

    obligations = _ordering_obligations(plan, n) if tiles else None
    if obligations is not None:
        # Program order inside a task: the forward sweep walks the task's
        # nodes in list order, the backward sweep in reverse.
        fwd, bwd = obligations
        _check_orderings("forward", fwd, task_of, place, *plan.forward_deps(), report, name)
        _check_orderings("backward", bwd, task_of, -place, *plan.backward_deps(), report, name)
    cert = ScheduleCertificate(
        digest=plan_digest(plan), report=report, nsuper=len(plan.steps), ntasks=plan.ntasks
    )
    return cert, obligations


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
    return _certify_plan_orderings(plan, stree, name)[0]


# ------------------------------------------------------- level programs
def _first_untiled_row(starts: np.ndarray, lengths: np.ndarray, total: int) -> int | None:
    """Where the intervals stop tiling ``[0, total)`` (``None``: they tile it)."""
    order = np.argsort(starts, kind="stable")
    starts, lengths = starts[order], lengths[order]
    expect = np.cumsum(lengths) - lengths
    bad = np.flatnonzero(starts != expect)
    if bad.size:
        return int(min(starts[bad[0]], expect[bad[0]]))
    end = int(lengths.sum())
    return None if end == total else min(end, total)


def _check_program_structure(
    program: "LevelProgram", plan: "ExecPlan", report: Report, name: str
) -> None:
    """Decode the program against the plan it claims to compile.

    The fused executor trusts the program's index vectors and replay
    operators blindly — this check re-derives, from the plan's steps
    alone, what every one must contain, so a mutated layout, operator,
    gather or lane can never certify.  Nothing here consults ``compile_level_program``: the
    compiler's output is judged against the plan, not against itself.
    """
    steps = plan.steps
    ns = len(steps)
    loc0 = f"{name}/program"
    if program.nsuper != ns or len(program.levels) != (
        int(plan.node_level.max()) + 1 if ns else 0
    ):
        report.add(
            "schedule-program-shape",
            f"program covers {program.nsuper} supernodes in "
            f"{len(program.levels)} levels but the plan has {ns} supernodes",
            location=loc0,
        )
        return
    if not np.array_equal(program.node_level, plan.node_level):
        report.add(
            "schedule-program-shape",
            "program's node levels differ from the plan's bottom-up levels",
            location=loc0,
        )
        return

    # The level barrier is the program's only ordering device: every
    # child must sit strictly below its parent or the contribution
    # hand-off happens inside one unordered level.
    lvl_of = program.node_level
    kids = np.array([c for st in steps for c in st.children], dtype=np.int64)
    parents = np.repeat(np.arange(ns), [len(st.children) for st in steps])
    inverted = lvl_of[kids] >= lvl_of[parents]
    for c, s in zip(kids[inverted].tolist(), parents[inverted].tolist()):
        report.add(
            "schedule-program-level",
            f"child {c} (level {int(lvl_of[c])}) is not strictly below "
            f"its parent {s} (level {int(lvl_of[s])}) — the level "
            "barrier cannot order their contribution hand-off",
            location=loc0,
        )

    # Membership: levels must partition the supernodes, each node listed
    # in the level node_level assigns it to.
    listed = [
        np.concatenate([bkt.nodes for bkt in lvl.buckets], dtype=np.int64)
        if lvl.buckets else np.empty(0, dtype=np.int64)
        for lvl in program.levels
    ]
    flat = np.concatenate(listed) if listed else np.empty(0, dtype=np.int64)
    where = np.repeat(np.arange(len(listed)), [a.size for a in listed])
    unknown = (flat < 0) | (flat >= ns)
    times = np.bincount(flat[~unknown], minlength=ns)
    misplaced = ~unknown
    misplaced[misplaced] = lvl_of[flat[misplaced]] != where[misplaced]
    for bad, what in (
        (flat[unknown], "are not supernodes of the plan"),
        (np.flatnonzero(times > 1), "appear in several levels or twice in one"),
        (np.flatnonzero(times == 0), "appear in no level — never solved"),
        (flat[misplaced], "execute in a level other than node_level's"),
    ):
        if bad.size:
            report.add(
                "schedule-program-partition",
                f"supernodes {format_index_set(np.unique(bad))} {what}",
                location=loc0,
            )
    if np.any(unknown) or np.any(times != 1) or np.any(misplaced):
        return  # the per-level decodes below would only cascade

    width = np.array([st.t for st in steps], dtype=np.int64)
    below_count = np.array([st.n - st.t for st in steps], dtype=np.int64)
    col_lo = np.array([st.col_lo for st in steps], dtype=np.int64)
    # the workspace the replay operators read: n solution rows, then the arena
    n = max((st.col_hi for st in steps), default=0)
    ncols = n + program.contrib_total
    if program.n != n:
        report.add(
            "schedule-program-shape",
            f"program declares {program.n} solution rows but the plan's "
            f"columns end at {n} — contributions would land in the wrong rows",
            location=loc0,
        )

    # Contribution arena: the per-node slices must tile [0, contrib_total).
    has_below = below_count > 0
    row = _first_untiled_row(
        program.contrib_off[has_below], below_count[has_below], program.contrib_total
    )
    if row is not None:
        report.add(
            "schedule-program-contrib",
            f"contribution slices overlap, leave a gap or overrun the declared "
            f"{program.contrib_total} rows at arena row {row}",
            location=loc0,
        )

    for lvl, nodes in zip(program.levels, listed):
        loc = f"{name}/program level {lvl.index}"
        members = np.sort(nodes)
        owners = members[has_below[members]]

        # --- accumulator layout: per-node intervals must tile [0, size),
        # tops inside [0, top_total), belows after it.
        top_at, below_at = program.node_top_off[members], program.node_below_off[owners]
        row = _first_untiled_row(
            np.concatenate((top_at, below_at)),
            np.concatenate((width[members], below_count[owners])),
            lvl.size,
        )
        layout_ok = (
            row is None
            and not np.any(top_at + width[members] > lvl.top_total)
            and not np.any(below_at < lvl.top_total)
        )
        if not layout_ok:
            report.add(
                "schedule-program-layout",
                f"panels do not tile the level accumulator as [tops | belows] "
                f"(top region [0, {lvl.top_total}), size {lvl.size}"
                + (f", first overlap, gap or overrun at row {row})" if row is not None
                   else "): a block sits in the wrong region"),
                location=loc,
            )

        # --- every bucket is one vectorized lane: its arrays must restate
        # the plan's per-node facts or the bucket-wide take / product /
        # reduction would pair the wrong rows.
        for bkt in lvl.buckets:
            t, kb, at = bkt.t, bkt.k_below, np.arange(bkt.k)
            own = bkt.nodes[:kb]
            counts = below_count[own]
            seg = np.cumsum(counts) - counts
            bad = (
                kb > bkt.k
                or np.any(width[bkt.nodes] != t)
                or np.any((below_count[bkt.nodes] > 0) != (at < kb))
                or not np.array_equal(program.node_top_off[bkt.nodes], bkt.top_lo + t * at)
                or not np.array_equal(bkt.rep_idx, np.repeat(at[:kb], counts))
                or not np.array_equal(program.node_below_off[own], bkt.below_lo + seg)
                or not np.array_equal(program.contrib_off[own], bkt.contrib_lo + seg)
            )
            if bad:
                report.add(
                    "schedule-program-lane",
                    f"bucket t={t} misdescribes its panels (width, below-owning "
                    "nodes first, top / below / contribution offsets or owner "
                    "indices) — the bucket-wide product would reduce the wrong "
                    "segments",
                    location=loc,
                )

        if not layout_ok:
            continue  # the vector decodes below assume a clean layout

        # --- per accumulator row, the solution row it stands for: each
        # panel's own columns for its tops, its below-rows for its belows.
        tw = width[members]
        ramp = np.arange(int(tw.sum())) - np.repeat(np.cumsum(tw) - tw, tw)
        exp_top = np.full(lvl.top_total, -1, dtype=np.int64)
        exp_top[np.repeat(top_at, tw) + ramp] = np.repeat(col_lo[members], tw) + ramp
        exp_g = np.full(lvl.size - lvl.top_total, -1, dtype=np.int64)
        for s, go in zip(owners, (below_at - lvl.top_total).tolist()):
            exp_g[go:go + below_count[s]] = steps[s].below
        rows = lvl.gather_rows
        if rows.size != lvl.size or not np.array_equal(rows[: lvl.top_total], exp_top):
            report.add(
                "schedule-program-gather",
                "gather vector's top rows do not name each panel's own "
                "columns — solved tops would be written to the wrong rows",
                location=loc,
            )
        if rows.size != lvl.size or not np.array_equal(rows[lvl.top_total :], exp_g):
            report.add(
                "schedule-program-gather",
                "backward gather vector does not fetch each panel's "
                "below-rows in the accumulator's below order",
                location=loc,
            )

        # --- the replay operator: every top row first reads its own
        # right-hand-side row, then every row its child contributions in the
        # plan's (parent ascending, child ascending, row ascending) order.
        edges = [
            (s, c, idx)
            for s in members.tolist()
            for c, idx in zip(steps[s].children, steps[s].child_scatter)
            if below_count[c]
        ]
        if edges:
            lens = np.array([idx.size for _, _, idx in edges], dtype=np.int64)
            par = np.repeat([s for s, _, _ in edges], lens)
            idx64 = np.concatenate([idx for _, _, idx in edges]).astype(np.int64)
            exp_dst = idx64 + np.where(
                idx64 < width[par],
                program.node_top_off[par],
                program.node_below_off[par] - width[par],
            )
            first = np.cumsum(lens) - lens
            exp_src = n + np.arange(idx64.size) + np.repeat(
                program.contrib_off[[c for _, c, _ in edges]] - first, lens
            )
        else:
            exp_dst = exp_src = np.empty(0, dtype=np.int64)
        dst = np.concatenate((np.arange(lvl.top_total), exp_dst))
        order = np.argsort(dst, kind="stable")
        exp_ptr = np.zeros(lvl.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=lvl.size), out=exp_ptr[1:])
        exp_idx = np.concatenate((exp_top, exp_src))[order]
        op = lvl.replay
        if op.shape != (lvl.size, ncols):
            report.add(
                "schedule-program-workspace",
                f"replay operator is {op.shape[0]} x {op.shape[1]}, not "
                f"{lvl.size} x {ncols} (the level over the [y | contrib] workspace)",
                location=loc,
            )
        elif (
            op.format != "csr"
            or not np.array_equal(op.indptr, exp_ptr)
            or op.indices.size != exp_idx.size
        ):
            report.add(
                "schedule-program-scatter",
                "replay operator rows do not hold the plan's contribution "
                "entries — a contribution would be lost, doubled or misrouted",
                location=loc,
            )
        else:
            self_at = exp_ptr[: lvl.top_total]  # each top row's first entry
            if not np.array_equal(op.indices[self_at], exp_idx[self_at]):
                report.add(
                    "schedule-program-gather",
                    "replay operator's top rows do not start from each "
                    "panel's own right-hand-side rows",
                    location=loc,
                )
            replayed = np.ones(exp_idx.size, dtype=bool)
            replayed[self_at] = False
            if not np.array_equal(op.indices[replayed], exp_idx[replayed]):
                report.add(
                    "schedule-program-scatter",
                    "replay operator differs from the plan's deterministic "
                    "(parent-ascending, child-ascending) contribution replay — "
                    "results would depend on the program, not the structure",
                    location=loc,
                )
            if op.data.size != exp_idx.size or np.any(op.data != 1.0):
                report.add(
                    "schedule-program-scatter",
                    "replay operator has a coefficient other than exactly 1.0 "
                    "— the extend-add would scale a contribution",
                    location=loc,
                )

        # --- the backward gather buffer must cover this level.
        if program.max_acc < lvl.size:
            report.add(
                "schedule-program-workspace",
                f"declared workspace maxima cannot hold level {lvl.index}",
                location=loc,
            )


def certify_level_program(
    program: "LevelProgram",
    plan: "ExecPlan",
    stree: "SupernodalTree | None" = None,
    *,
    name: str = "fused",
) -> ScheduleCertificate:
    """Statically certify a fused level program against its plan.

    Extends :func:`certify_plan` in three moves: first the plan itself is
    certified (a faithful compilation of a broken plan is still broken);
    then the program's flat layout, lanes, replay operators and gather
    vectors are decoded back against the plan's steps (rules
    ``schedule-program-*``);
    finally the plan's ordering obligations are checked against the level
    chain, each node standing in its ``program.node_level`` — level ``i``
    before ``i + 1`` forward, reversed backward — proving the level
    barriers order every cross-node hand-off.

    The certificate's ``digest`` is the *plan's* canonical digest: a
    certified program is proven to be a re-layout of exactly that
    schedule, so a fused solve reports the determinism certificate of
    the plan itself.
    """
    base, obligations = _certify_plan_orderings(plan, stree, name)
    report = base.report
    _check_program_structure(program, plan, report, name)

    nlev = len(program.levels)
    level = program.node_level
    # A node_level that is not one existing level per supernode is already a
    # schedule-program-shape finding; there is no chain to check it against.
    if (
        obligations is not None
        and level.size == len(plan.steps)
        and not np.any((level < 0) | (level >= nlev))
    ):
        # Same-level hand-offs are rejected by schedule-program-level above,
        # so ascending node order stands in for the within-level program
        # order.  Each level waits for the one the sweep visits just before.
        pos = np.arange(level.size)
        waits = [min(i, 1) for i in range(nlev)]
        up = [[i + 1] if i + 1 < nlev else [] for i in range(nlev)]
        down = [[i - 1] if i > 0 else [] for i in range(nlev)]
        fwd, bwd = obligations
        _check_orderings("forward", fwd, level, pos, waits, up, report, name)
        _check_orderings("backward", bwd, level, pos, waits[::-1], down, report, name)
    return ScheduleCertificate(
        digest=base.digest, report=report, nsuper=program.nsuper, ntasks=nlev
    )


__all__ = [
    "CERT_SCHEMA",
    "ScheduleCertificate",
    "certify_level_program",
    "certify_plan",
    "plan_digest",
]
