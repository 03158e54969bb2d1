"""The fused, level-batched execution backend (``backend="fused"``).

A per-node executor's hot path is Python dispatch: one loop iteration and
one scatter loop per supernode.  On fine-grained elimination trees
(unrelaxed 2-D/3-D grid trees are ~85% width-1 supernodes) that overhead dwarfs
the dense kernels (``exec.engine.*`` against ``exec.fused.*`` in
``benchmarks/spine/README.md``).  This module executes the
:class:`~repro.exec.plan.LevelProgram` compiled from the tree over one
workspace block ``xc = [y | contrib]`` — the ``n`` solution rows, then
the tree-wide contribution arena — per level a handful of calls:

* the level's gather and extend-add are **one compiled sparse product**,
  ``acc = replay @ xc``: row ``i`` of the level's structure-only operator
  lists a top's own right-hand-side row, then every child contribution
  the row receives in the tree's (parent ascending, child ascending)
  order, all with coefficient 1.0.  scipy's row loop starts each row at
  +0.0 and adds ``1.0 * x`` (exact) one term at a time in storage order,
  so every row receives exactly the deterministic ascending-child
  sum — the serial walker's, which starts its accumulators at +0.0 too;
* the level's diagonal solves are **one compiled sparse product** too,
  ``tops = D @ acc[:tt]``: :func:`build_fused_panels` stores the inverses
  of all of the level's diagonal blocks as one block-diagonal CSR
  operator ``D`` (``1 / pivot`` at width 1, ``tril(L_ss⁻¹)`` above, lower
  triangle only), and backward applies ``D.T``, the CSC view of the same
  three arrays.  Per output row scipy's loop is the zero-started
  ascending sum of :func:`~repro.numeric.kernels.tri_apply` /
  :func:`~repro.numeric.kernels.tri_apply_t`, which the serial walker and
  the engine run node by node.  No per-node loop is left in the
  sweeps, and no BLAS call;
* all of the level's rectangles are **one compiled sparse product** too.
  :func:`build_fused_panels` lowers them to a single CSR block ``F`` whose
  rows are the accumulator's below rows and whose columns are its tops,
  so forward the level's contributions are ``acc[tt:] - F @ tops``,
  written straight into the arena, and backward its tops lose
  ``F.T @ x[below]`` — ``F.T`` being the CSC view of the same three
  arrays.  No term stack is materialised.  Per output row scipy's loop
  starts from zero and adds one ``a * x`` at a time in ascending storage
  order, every operand column independently: exactly what
  :func:`~repro.numeric.kernels.rect_apply` /
  :func:`~repro.numeric.kernels.rect_apply_t` compute for one rectangle,
  so each node's rows round as they do there — whereas a plain GEMM
  would round differently at different NRHS widths, which would break
  the serving layer's coalescing-transparency guarantee;
* one fancy assignment writes the solved tops back.  Backward, one
  ``take`` through the level's ``gather_rows`` fetches its tops and its
  below rows together, the tops lose ``F.T @ below`` and ``D.T`` solves
  them straight into the scatter.

Forward, a level is ``acc = replay @ xc``, ``tops = D @ acc[:tt]``,
``contrib = acc[tt:] - F @ tops`` and the scatter; backward the ``take``,
``tops -= F.T @ below`` and ``x[rows] = D.T @ tops``.

None of it runs through ``@``.  :func:`_bind` compiles every level, once
per workspace — when the arena builds it, for one program at one width
``m`` — into a flat **tape** of ``(call, args)`` pairs stored on the
:class:`~repro.exec.arena.FusedWorkspace`, and a sweep is one loop over
that tuple (:func:`_sweep`): no attribute lookup, no dispatch, no
allocation.  Each product is the compiled loop ``@``
would dispatch to — scipy's ``csr_matvec`` / ``csc_matvec`` at one
column, ``csr_matvecs`` / ``csc_matvecs`` above — called directly with
the arguments ``@`` passes it (:func:`_matvec`), which skips scipy's
Python-side dispatch (ROADMAP F4: about 5 µs a product against 1.7 µs
for the loop).  Those loops accumulate into their output, so scipy
zeroes it first; the tape instead writes every product into the
workspace — into one scratch block sized for the widest level, forward
``[acc | tops]`` and backward ``[gather | t1 | t2]``, which one
``fill(0.0)`` per level zeroes before its products, and forward the
rectangle product straight into the level's contribution slice, which
one ``fill(0.0)`` of the whole arena zeroes before the first level.
Every output still starts at +0.0 and adds its terms in storage order,
so the bits are those of ``@`` (``TestDirectCalls`` in
``tests/test_exec_fused.py`` pins each call bytewise to ``@``, also at
the oldest numpy and scipy the package admits).  That makes five calls a level each
way, whatever the level's width — forward the fill, the three products
and the in-place subtraction ``contrib = acc[tt:] - contrib``, backward
the ``take``, the fill, two products and the subtraction — plus the
scatter, a subscript store.

Every buffer the sweeps write comes from the workspace leased from the
prepared factor's arena, so a steady-state solve allocates no arrays in
its sweeps at all.  The arena also keeps each program's packed panels
(:func:`build_fused_panels`, placed by the program's ``node_top_off`` /
``node_below_off``) in that program's entry, so a hand-built
``program=`` packs once, like the cached one, and its panels, tapes
and workspaces go when it is collected.  All dense math matches the
canonical kernels in :mod:`repro.numeric.kernels` op for op; solutions
are bitwise identical to the ``serial`` reference (and to the engine
baseline, :func:`repro.exec.engine.solve_exec`).

On a block of ``SPLIT_MIN_WIDTH`` or more columns, in a process that
may use two CPUs, a workspace is bound **split**: the program's two
``parts`` (:func:`~repro.exec.plan.split_parts`, whole subtrees under
the tree's first fork) each get their own tape of the same operators,
called on the part's rows — CSR ``indptr`` slices forward, CSC column
slices backward (:func:`_part_tapes`) — and the top keeps one tape for
the rest.  A forward sweep zeroes the arena, runs the second part on a
per-process worker thread and the first in the caller, joins, and runs
the top; backward runs the top, then forks and joins the parts.  Every
row still sums the same terms in the same order, on one thread, so
the answer is bitwise the single-thread one.

The backward gather calls ``ndarray.take`` directly (``np.take`` reaches
the same C routine through a Python-level ``fromnumeric`` wrapper) and
with ``mode="clip"``: under the default ``mode="raise"`` numpy builds the
result in a temporary and copies it into ``out``, which costs more than
the gather.  Every index vector and operator is in range by construction
— the compiler derives them from the tree and the certifier re-derives
each one (``schedule-program-*``).
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass
from typing import ContextManager

import numpy as np
from scipy.sparse import _sparsetools, csc_array, csr_array

from repro.exec.arena import FusedWorkspace, build_fused_workspace
from repro.exec.cache import PreparedFactor, prepare_factor, program_for
from repro.exec.plan import LevelProgram, level_nodes, part_rows
from repro.numeric.supernodal import SupernodalFactor
from repro.numeric.trisolve import rhs_view
from repro.util.validation import require


@dataclass(frozen=True)
class FusedPanels:
    """Panel values packed in the program's layout — its value-side complement.

    ``diag[level]`` is the level's diagonal-block inverses as one
    block-diagonal CSR matrix of shape ``(top_total, top_total)``: the
    ``t`` rows of a width-``t`` top hold, at the columns of the same top,
    row ``i`` of ``tril(L_ss⁻¹)`` from column 0 to ``i`` (the lower
    triangle only).  ``diag_t[level]`` is the transpose as a CSC view over
    the same three arrays, for the backward sweep.

    ``rect[level]`` is the level's rectangles as one CSR matrix of shape
    ``(size - top_total, top_total)``: row ``j`` is below row ``j`` of the
    level accumulator, its ``t`` entries sit at the columns of its
    owner's tops, ascending.  ``rect_t[level]`` is its CSC transpose.
    """

    diag: tuple[csr_array, ...]
    diag_t: tuple[csc_array, ...]
    rect: tuple[csr_array, ...]
    rect_t: tuple[csc_array, ...]


def _level_diagonal(
    tt: int, top: np.ndarray, width: np.ndarray, inv: list[np.ndarray]
) -> csr_array:
    """One level's diagonal-block inverses as one block-diagonal CSR.

    Each top row ``i`` of a width-``t`` node holds ``i + 1`` entries, at the
    node's first ``i + 1`` top columns; the values are each inverse's
    lower triangle, row by row, node after node in the level's top order.
    """
    index = np.int32 if tt * (tt + 1) // 2 <= np.iinfo(np.int32).max else np.int64
    start = np.repeat(top.astype(index), width)  # per row, its node's first top
    count = np.arange(1, tt + 1, dtype=index) - start  # i + 1
    indptr = np.zeros(tt + 1, dtype=index)
    np.cumsum(count, out=indptr[1:])
    indices = np.repeat(start - indptr[:-1], count)
    indices += np.arange(indices.size, dtype=index)
    # one gather per width: a node's triangle is contiguous from its first row
    data = np.empty(indices.size)
    for t in np.unique(width).tolist():
        same = np.flatnonzero(width == t)
        tri = np.tri(t, dtype=bool)
        stack = np.stack([inv[k] for k in same.tolist()])
        data[indptr[top[same]][:, None] + np.arange(t * (t + 1) // 2)] = stack[:, tri]
    return csr_array((data, indices, indptr), shape=(tt, tt))


def _level_rectangle(
    tt: int, top: np.ndarray, width: np.ndarray, count: np.ndarray, rect: list[np.ndarray]
) -> csr_array:
    """One level's rectangles as the CSR block its sweeps multiply by.

    Rows are the level accumulator's below rows, owner after owner.  A
    below row of a width-``t`` owner holds ``t`` entries, at the
    accumulator columns of its owner's tops, ascending; the values are
    the factor's rectangles in the same order.
    """
    index = np.int32 if int(width @ count) <= np.iinfo(np.int32).max else np.int64
    per_row = np.repeat(width.astype(index), count)  # entries per below row
    indptr = np.zeros(per_row.size + 1, dtype=index)
    np.cumsum(per_row, out=indptr[1:])
    # entry e of row r sits at column top[owner(r)] + (e - indptr[r])
    indices = np.repeat(np.repeat(top.astype(index), count) - indptr[:-1], per_row)
    indices += np.arange(indices.size, dtype=index)
    # Every level gets arrays of its own: scipy copies a block handed to it
    # as a slice of something larger, which would double the peak.
    data = np.concatenate([r.reshape(-1) for r in rect] or [np.empty(0)])
    return csr_array((data, indices, indptr), shape=(per_row.size, tt))


def build_fused_panels(program: LevelProgram, prep: PreparedFactor) -> FusedPanels:
    """Pack the panel values of *prep* in *program*'s level layout.

    A level's tops sit back to back in node order, then the belows of the
    nodes that have any, so the offsets give every width and below count.
    """
    diag, rect = [], []
    for lvl, nodes in zip(program.levels, level_nodes(program.node_level, program.nlevels)):
        top, below = program.node_top_off[nodes], program.node_below_off[nodes]
        width = np.diff(top, append=lvl.top_total)
        owns = below >= 0
        diag.append(_level_diagonal(
            lvl.top_total, top, width, [prep.inv[s] for s in nodes.tolist()]))
        rect.append(_level_rectangle(
            lvl.top_total, top[owns], width[owns], np.diff(below[owns], append=lvl.size),
            [prep.rect[s] for s in nodes[owns].tolist()]))
    return FusedPanels(diag=tuple(diag), diag_t=tuple(d.T for d in diag),
                       rect=tuple(rect), rect_t=tuple(r.T for r in rect))


def _panels(prep: PreparedFactor, program: LevelProgram) -> FusedPanels:
    """*program*'s packed panels of *prep*, kept in *prep*'s arena entry for *program*."""
    return prep.arena.shared(program, lambda: build_fused_panels(program, prep))


def fused_panels_for(factor: SupernodalFactor) -> FusedPanels:
    """The packed panel values of *factor* in its structure's cached program (built once)."""
    return _panels(prepare_factor(factor), program_for(factor.stree))


# ------------------------------------------------------------------ tapes
def _flat(block: np.ndarray) -> np.ndarray:
    """*block*'s memory as one flat view — never a copy the loops would write into."""
    require(block.flags.c_contiguous, "a fused operand must be a contiguous block")
    return block.reshape(-1)


def _matvec(op: csr_array | csc_array, x: np.ndarray, y: np.ndarray, lo: int = 0,
            hi: int | None = None) -> tuple:
    """``y += op @ x`` as the ``(call, args)`` pair scipy's ``@`` itself makes.

    The call is the compiled loop ``@`` dispatches to — ``csr_matvec`` /
    ``csc_matvec`` for one column, ``csr_matvecs`` / ``csc_matvecs`` for
    more — with the arguments ``@`` passes it.  scipy zeroes the output
    first; the caller's *y* must hold +0.0 when the call runs.

    ``lo`` / ``hi`` slice *op*'s compressed axis — a CSR's rows, a CSC's
    columns — by passing ``indptr[lo:hi + 1]`` with the full ``indices``
    and ``data``.  So a CSR slice writes its rows from ``y[0]`` and reads
    *x* at its own column numbers; a CSC slice reads its columns from
    ``x[0]`` and writes *y* at its own row numbers.
    """
    hi = op.indptr.size - 1 if hi is None else hi
    rows, cols = op.shape
    if op.format == "csr":
        rows = hi - lo
    else:
        cols = hi - lo
    ptr = op.indptr[lo : hi + 1]
    m = x.shape[1]
    if m == 1:
        return getattr(_sparsetools, op.format + "_matvec"), (
            rows, cols, ptr, op.indices, op.data, _flat(x), _flat(y))
    return getattr(_sparsetools, op.format + "_matvecs"), (
        rows, cols, m, ptr, op.indices, op.data, _flat(x), _flat(y))


def _part_tapes(
    program: LevelProgram, panels: FusedPanels, xc: np.ndarray, scratch: np.ndarray,
    lo: int, hi: int,
) -> tuple[list[tuple], list[tuple]]:
    """The forward and backward calls of the supernodes ``lo <= s < hi`` on *scratch*.

    Per level the nodes own tops ``[ta, tb)`` and belows ``[ba, bb)`` of
    the accumulator (:func:`~repro.exec.plan.part_rows`), and every
    operator is called on that slice of its rows (forward) or columns
    (backward), so each row sums the same terms in the same order as on
    the whole level.  What a slice reads at its level numbering sits at
    that numbering in *scratch*, everything else back to back:

    * forward, ``[acc tops at rows ta..tb | acc belows | solved tops]``,
      the solved tops at ``tb + nb - ta`` plus their level row;
    * backward, ``[gathered tops | gathered belows | t1 | t2]``, each of
      ``t1`` and ``t2`` written at its base plus the level row.

    For the whole id range that is ``[acc | tops]`` and ``[gather | t1 |
    t2]``: one run of rows per sweep, one call per operator.
    """
    n = program.n
    x = xc[:n]
    forward: list[tuple] = []
    backward: list[tuple] = []
    for lvl, (ta, tb, ba, bb), diag, diag_t, rect, rect_t in zip(
        program.levels, part_rows(program, lo, hi),
        panels.diag, panels.diag_t, panels.rect, panels.rect_t,
    ):
        nt, nb, tt = tb - ta, bb - ba, lvl.top_total
        if not nt:
            continue  # no node of the range on this level
        require(scratch.shape[0] >= _scratch_rows(ta, tb, ba, bb),
                "a part's scratch block is too short for its rows")
        contrib = xc[n + lvl.arena_lo + ba - tt : n + lvl.arena_lo + bb - tt]
        gather = lvl.gather_rows
        # forward: acc = replay @ xc, tops = D @ acc, contrib = acc - F @ tops
        at = tb + nb - ta
        acc_b, tops = scratch[tb : tb + nb], scratch[tb + nb : tb + nb + nt]
        forward.append((scratch[ta : tb + nb + nt].fill, (0.0,)))
        one_run = ba == tb or not nb  # the tops and the belows are one run of rows
        if one_run:
            forward.append(_matvec(lvl.replay, xc, scratch[ta : tb + nb], ta, tb + nb))
        else:
            forward += [_matvec(lvl.replay, xc, scratch[ta:tb], ta, tb),
                        _matvec(lvl.replay, xc, acc_b, ba, bb)]
        forward.append(_matvec(diag, scratch[:tb], tops, ta, tb))
        if nb:
            forward += [_matvec(rect, scratch[at : at + tb], contrib, ba - tt, bb - tt),
                        (np.subtract, (acc_b, contrib, contrib))]
        forward.append((xc.__setitem__, (gather[ta:tb], tops)))
        # backward: take, tops -= F.T @ below, x[tops] = D.T @ tops
        g = nt + nb
        acc_t, t1, t2 = scratch[:nt], scratch[g : g + tb], scratch[g + nt : g + nt + tb]
        if one_run:
            calls = [(x.take, (gather[ta : tb + nb], 0, scratch[:g], "clip"))]
        else:
            calls = [(x.take, (gather[ta:tb], 0, acc_t, "clip")),
                     (x.take, (gather[ba:bb], 0, scratch[nt:g], "clip"))]
        calls.append((scratch[g + ta : g + tb + nt].fill, (0.0,)))
        if nb:
            # two views of the tops, as the single-thread tape has always
            # passed them: one object as input and output takes numpy's
            # faster alias path, and the one-part tape stays today's
            calls += [_matvec(rect_t, scratch[nt:g], t1, ba - tt, bb - tt),
                      (np.subtract, (scratch[:nt], t1[ta:], acc_t))]
        calls += [_matvec(diag_t, acc_t, t2, ta, tb),
                  (x.__setitem__, (gather[ta:tb], t2[ta:]))]
        backward[:0] = calls
    return forward, backward


def _scratch_rows(ta: int, tb: int, ba: int, bb: int) -> int:
    """The scratch rows :func:`_part_tapes` uses on a level: backward's, the longer."""
    return 2 * (tb - ta) + (bb - ba) + tb


def _bind(
    ws: FusedWorkspace, program: LevelProgram, panels: FusedPanels,
    parts: tuple[tuple[int, int], ...] = (),
) -> FusedWorkspace:
    """Compile *ws*'s two tapes: every level's calls, pre-bound to *ws*'s buffers.

    Without *parts* every node is one part on ``ws.scratch``.  With the
    program's two ``parts``, the first runs on ``ws.scratch`` in the
    caller and the second in the worker thread (one :func:`_fork` call)
    on ``ws.part_scratch``, a block made here for that part's rows; the
    rest — the top — runs on ``ws.scratch`` after the join forward and
    before the fork backward.
    """
    require(len(parts) in (0, 2), "a split binds exactly two parts")
    xc, n = ws.xc, program.n
    top, rest = max((h for _, h in parts), default=0), program.nsuper
    forward, backward = _part_tapes(program, panels, xc, ws.scratch, top, rest)
    # Every level's rectangle product accumulates straight into its
    # contribution slice, so the forward sweep starts the arena at +0.0.
    forward.insert(0, (xc[n:].fill, (0.0,)))
    if parts:
        rows = max((_scratch_rows(*r) for r in part_rows(program, *parts[1]) if r[1] > r[0]),
                   default=0)
        ws.part_scratch = np.empty((rows, ws.scratch.shape[1]))
        a, b = [_part_tapes(program, panels, xc, block, lo, hi)
                for block, (lo, hi) in zip((ws.scratch, ws.part_scratch), parts)]
        forward.insert(1, (_fork, (tuple(a[0]), tuple(b[0]))))
        backward.append((_fork, (tuple(a[1]), tuple(b[1]))))
    ws.forward, ws.backward = tuple(forward), tuple(backward)
    return ws


def _sweep(tape: tuple) -> None:
    """Run one sweep: every call of the tape, in order."""
    for call, args in tape:
        call(*args)


# ------------------------------------------------------------ the worker
#: Narrowest block the sweeps split across two threads.  Warm
#: ``solve_fused``, split ÷ one thread, on grid2d(96), grid3d(16),
#: grid3d(12) and fe_mesh_3d(12, seed=219) at relax 16: five pairs of
#: alternating processes per matrix (20 readings per width), 2-core VM,
#: ``OPENBLAS_NUM_THREADS=1``.  Medians are per matrix, in that order.
#:
#: ====  ==========================  ===========  ======
#:   m   medians                     range        losses
#: ====  ==========================  ===========  ======
#:   1   1.13  0.99  2.86  1.49      0.98–2.98    17/20
#:   2   0.72  0.72  0.97  0.95      0.71–1.67     3/20
#:   4   0.71  0.70  0.94  0.91      0.69–1.59     3/20
#:   8   0.67  0.67  0.87  0.84      0.64–1.43     2/20
#:  16   0.60  0.63  0.77  0.75      0.60–1.14     1/20
#: ====  ==========================  ===========  ======
#:
#: A one-column sweep is too short to pay for its GIL hand-offs.  At 2
#: and 4 columns the split wins most readings but loses up to 1.7× when
#: the second core is busy; from 8 the products are large enough that
#: the worst reading stays within 1.43× and the usual one is 0.6–0.9×.
#: Serving's open-loop batches (mean width 1.4) stay single-threaded.
SPLIT_MIN_WIDTH = 8

_jobs: queue.SimpleQueue | None = None
_free = threading.Lock()  # held from a hand-off until the worker has run it


def _serve(jobs: queue.SimpleQueue) -> None:
    """The worker thread: run each job handed over, holding on to none of it."""
    while True:
        _run(*jobs.get())


def _run(tape: tuple, done: threading.Lock, failed: list) -> None:
    """Run *tape*, then free the worker and release its caller."""
    try:
        _sweep(tape)
    except BaseException as exc:  # handed to the caller, never lost here
        failed.append(exc)
    finally:
        _free.release()
        done.release()


def _worker() -> queue.SimpleQueue:
    """The worker thread's queue; the thread starts on first use.

    Only a caller holding ``_free`` asks, so no two threads start one.
    """
    global _jobs
    if _jobs is None:
        _jobs = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_jobs,), name="repro-fused-part",
                         daemon=True).start()
    return _jobs


def _forget_worker() -> None:
    """A forked child has no worker thread: start a new one when it needs it."""
    global _jobs, _free
    _jobs, _free = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _fork(mine: tuple, theirs: tuple) -> None:
    """Run *theirs* on the worker thread and *mine* here; return once both ran.

    While the worker runs another caller's part, both run here, one after
    the other: a second core already busy gains nothing from a hand-off.
    The join is in ``finally``: whatever *mine* raises, the worker is
    done writing before the caller's lease can hand the workspace on.
    """
    if not _free.acquire(blocking=False):
        _sweep(mine)
        _sweep(theirs)
        return
    done, failed = threading.Lock(), []
    done.acquire()
    _worker().put((theirs, done, failed))
    try:
        _sweep(mine)
    finally:
        done.acquire()
    if failed:
        raise failed[0]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# ------------------------------------------------------------------ public
def _lease(
    factor: SupernodalFactor, program: LevelProgram | None, m: int
) -> ContextManager[FusedWorkspace]:
    """Lease the workspace of *program* (default: the cached one) at *m* columns.

    It comes from the prepared factor's arena.  A workspace's tapes are
    bound once, when it is built, to the panels the arena keeps for the
    program — packed once per program, hand-built or cached.
    """
    prep = prepare_factor(factor)
    program = program_for(factor.stree) if program is None else program

    def build() -> FusedWorkspace:
        split = m >= SPLIT_MIN_WIDTH and _usable_cpus() >= 2
        return _bind(build_fused_workspace(program, m), program, _panels(prep, program),
                     program.parts if split else ())

    return prep.arena.lease(program, ("fused", m), build)


def warm_fused(factor: SupernodalFactor, *, program: LevelProgram | None = None) -> None:
    """Build the workspace and tapes a one-column fused solve of *factor* runs on."""
    with _lease(factor, program, 1):
        pass


def forward_fused(
    factor: SupernodalFactor,
    b: np.ndarray,
    *,
    program: LevelProgram | None = None,
) -> np.ndarray:
    """Solve ``L y = b`` with the fused level program.

    *b* may be a vector or an ``(n, nrhs)`` block; the result matches the
    input's shape and is bitwise identical to the serial reference.
    """
    b, squeeze = rhs_view(b, factor.n)
    with _lease(factor, program, b.shape[1]) as ws:
        y = ws.xc[: factor.n]
        y[...] = b
        _sweep(ws.forward)
        y = y.copy()
    return y[:, 0] if squeeze else y


def backward_fused(
    factor: SupernodalFactor,
    b: np.ndarray,
    *,
    program: LevelProgram | None = None,
) -> np.ndarray:
    """Solve ``L^T x = b`` with the fused level program."""
    b, squeeze = rhs_view(b, factor.n)
    with _lease(factor, program, b.shape[1]) as ws:
        x = ws.xc[: factor.n]
        x[...] = b
        _sweep(ws.backward)
        x = x.copy()
    return x[:, 0] if squeeze else x


def solve_fused(
    factor: SupernodalFactor,
    b: np.ndarray,
    *,
    program: LevelProgram | None = None,
) -> np.ndarray:
    """Full ``A x = b`` solve (forward then backward) on the fused backend.

    Both sweeps run inside one workspace lease, on its solution rows, so
    a steady-state solve against a prepared factor allocates no arrays
    between copying *b* in and the answer out.
    """
    b, squeeze = rhs_view(b, factor.n)
    with _lease(factor, program, b.shape[1]) as ws:
        x = ws.xc[: factor.n]
        x[...] = b
        _sweep(ws.forward)
        _sweep(ws.backward)
        x = x.copy()
    return x[:, 0] if squeeze else x
