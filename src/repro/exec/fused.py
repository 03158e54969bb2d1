"""The fused, level-batched execution backend (``backend="fused"``).

A per-node executor's hot path is Python dispatch: one loop iteration and
one scatter loop per supernode.  On fine-grained elimination trees
(unrelaxed 2-D/3-D grid trees are ~85% width-1 supernodes) that overhead dwarfs
the dense kernels (``exec.engine.*`` against ``exec.fused.*`` in
``benchmarks/spine/README.md``).  This module executes the
:class:`~repro.exec.plan.LevelProgram` compiled from the plan over one
workspace block ``xc = [y | contrib]`` — the ``n`` solution rows, then
the tree-wide contribution arena — per level a handful of calls:

* the level's gather and extend-add are **one compiled sparse product**,
  ``acc = replay @ xc``: row ``i`` of the level's structure-only operator
  lists a top's own right-hand-side row, then every child contribution
  the row receives in the plan's (parent ascending, child ascending)
  order, all with coefficient 1.0.  scipy's row loop starts each row at
  +0.0 and adds ``1.0 * x`` (exact) one term at a time in storage order,
  so every row receives exactly the plan's deterministic ascending-child
  sum — the serial walker's, which starts its accumulators at +0.0 too;
* the level's diagonal solves are **one compiled sparse product** too,
  ``tops = D @ acc[:tt]``: :func:`build_fused_panels` stores the inverses
  of all of the level's diagonal blocks as one block-diagonal CSR
  operator ``D`` (``1 / pivot`` at width 1, ``tril(L_ss⁻¹)`` above, lower
  triangle only), and backward applies ``D.T``, the CSC view of the same
  three arrays.  Per output row scipy's loop is the zero-started
  ascending sum of :func:`~repro.numeric.kernels.tri_apply` /
  :func:`~repro.numeric.kernels.tri_apply_t`, which the serial walker and
  the engine run node by node.  No per-bucket and no per-node loop is
  left in the sweeps, and no BLAS call;
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
per ``(program, panels, m)``, into a flat **tape** of ``(call, args)``
pairs stored on the :class:`~repro.exec.arena.FusedWorkspace`, and a
sweep is one loop over that tuple (:func:`_sweep`): no attribute lookup,
no dispatch, no allocation.  Each product is the compiled loop ``@``
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
its sweeps at all.  All dense math matches the canonical kernels in
:mod:`repro.numeric.kernels` op for op; solutions are bitwise identical
to the ``serial`` reference (and to the engine baseline,
:func:`repro.exec.engine.solve_exec`).

The backward gather calls ``ndarray.take`` directly (``np.take`` reaches
the same C routine through a Python-level ``fromnumeric`` wrapper) and
with ``mode="clip"``: under the default ``mode="raise"`` numpy builds the
result in a temporary and copies it into ``out``, which costs more than
the gather.  Every index vector and operator is in range by construction
— the compiler derives them from the plan and the certifier re-derives
each one (``schedule-program-*``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.sparse import _sparsetools, csc_array, csr_array

from repro.exec.arena import FusedWorkspace, build_fused_workspace
from repro.exec.cache import (
    PreparedFactor,
    fused_panels_for,
    prepare_factor,
    program_for,
)
from repro.exec.plan import LevelProgram
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


def _level_diagonals(program: LevelProgram, prep: PreparedFactor) -> tuple[csr_array, ...]:
    """Lower every level's diagonal-block inverses to one block-diagonal CSR.

    Each top row ``i`` of a width-``t`` node holds ``i + 1`` entries, at the
    node's first ``i + 1`` top columns; the values are each inverse's
    lower triangle, row by row, node after node in the level's top order.
    """
    blocks = []
    for lvl in program.levels:
        tt = lvl.top_total
        index = np.int32 if tt * (tt + 1) // 2 <= np.iinfo(np.int32).max else np.int64
        width = np.concatenate([np.full(bkt.k, bkt.t, dtype=index) for bkt in lvl.buckets])
        start = np.repeat(np.cumsum(width, dtype=index) - width, width)  # per row
        count = np.arange(1, tt + 1, dtype=index) - start  # i + 1
        indptr = np.zeros(tt + 1, dtype=index)
        np.cumsum(count, out=indptr[1:])
        indices = np.repeat(start - indptr[:-1], count)
        indices += np.arange(indices.size, dtype=index)
        data = []
        for bkt in lvl.buckets:
            rows, cols = np.tril_indices(bkt.t)
            stack = np.stack([prep.inv[s] for s in bkt.nodes.tolist()])
            data.append(stack[:, rows, cols].reshape(-1))
        blocks.append(csr_array((np.concatenate(data) if data else np.empty(0), indices, indptr),
                                shape=(tt, tt)))
    return tuple(blocks)


def _level_rectangles(program: LevelProgram, prep: PreparedFactor) -> tuple[csr_array, ...]:
    """Lower every level's rectangles to the CSR block its sweeps multiply by.

    Rows are the level accumulator's below rows.  A below row of a
    width-``t`` bucket holds ``t`` entries, at the accumulator columns of
    its owner's tops (from ``top_lo + rep_idx * t``, ascending); the
    values are the factor's rectangles in the same (below) order.
    """
    buckets = [bkt for lvl in program.levels for bkt in lvl.buckets]
    rows = [bkt.b for bkt in buckets]
    nnz = sum(bkt.b * bkt.t for bkt in buckets)
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    # per below row, program order: its entry count, its first column and
    # where its entries start
    width = np.repeat(np.array([bkt.t for bkt in buckets], dtype=index), rows)
    first = np.concatenate([bkt.rep_idx for bkt in buckets], dtype=index)
    first *= width
    first += np.repeat(np.array([bkt.top_lo for bkt in buckets], dtype=index), rows)
    ptr = np.zeros(width.size + 1, dtype=index)
    np.cumsum(width, out=ptr[1:])

    # Every level gets arrays of its own: scipy copies a block handed to it
    # as a slice of something larger, which would double the peak.
    blocks = []
    row = 0
    for lvl in program.levels:
        nb = lvl.size - lvl.top_total
        indptr = ptr[row : row + nb + 1] - ptr[row]
        # entry e of row r sits at column first[r] + (e - indptr[r])
        indices = np.repeat(first[row : row + nb] - indptr[:-1], width[row : row + nb])
        indices += np.arange(indices.size, dtype=index)
        owners = [s for bkt in lvl.buckets for s in bkt.nodes[: bkt.k_below].tolist()]
        data = np.concatenate([prep.rect[s].reshape(-1) for s in owners] or [np.empty(0)])
        blocks.append(csr_array((data, indices, indptr), shape=(nb, lvl.top_total)))
        row += nb
    return tuple(blocks)


def build_fused_panels(program: LevelProgram, prep: PreparedFactor) -> FusedPanels:
    """Pack the panel values of *prep* in *program*'s level layout."""
    diag = _level_diagonals(program, prep)
    rect = _level_rectangles(program, prep)
    return FusedPanels(diag=diag, diag_t=tuple(d.T for d in diag),
                       rect=rect, rect_t=tuple(r.T for r in rect))


# ------------------------------------------------------------------ tapes
def _flat(block: np.ndarray) -> np.ndarray:
    """*block*'s memory as one flat view — never a copy the loops would write into."""
    require(block.flags.c_contiguous, "a fused operand must be a contiguous block")
    return block.reshape(-1)


def _matvec(op: csr_array | csc_array, x: np.ndarray, y: np.ndarray) -> tuple:
    """``y += op @ x`` as the ``(call, args)`` pair scipy's ``@`` itself makes.

    The call is the compiled loop ``@`` dispatches to — ``csr_matvec`` /
    ``csc_matvec`` for one column, ``csr_matvecs`` / ``csc_matvecs`` for
    more — with the arguments ``@`` passes it.  scipy zeroes the output
    first; the caller's *y* must hold +0.0 when the call runs.
    """
    rows, cols = op.shape
    m = x.shape[1]
    if m == 1:
        return getattr(_sparsetools, op.format + "_matvec"), (
            rows, cols, op.indptr, op.indices, op.data, _flat(x), _flat(y))
    return getattr(_sparsetools, op.format + "_matvecs"), (
        rows, cols, m, op.indptr, op.indices, op.data, _flat(x), _flat(y))


def _bind(ws: FusedWorkspace, program: LevelProgram, panels: FusedPanels) -> None:
    """Compile *ws*'s two tapes: every level's calls, pre-bound to *ws*'s buffers."""
    xc, scratch, n = ws.xc, ws.scratch, program.n
    x = xc[:n]
    # Every level's rectangle product accumulates straight into its
    # contribution slice, so the forward sweep starts the arena at +0.0.
    forward: list[tuple] = [(xc[n:].fill, (0.0,))]
    for lvl, diag, rect in zip(program.levels, panels.diag, panels.rect):
        size, tt = lvl.size, lvl.top_total
        acc, tops = scratch[:size], scratch[size : size + tt]
        forward += [(scratch[: size + tt].fill, (0.0,)),
                    _matvec(lvl.replay, xc, acc),
                    _matvec(diag, acc[:tt], tops)]
        if size > tt:
            c_lo = n + lvl.buckets[0].contrib_lo  # the buckets' slices are consecutive
            contrib = xc[c_lo : c_lo + size - tt]
            forward += [_matvec(rect, tops, contrib),
                        (np.subtract, (acc[tt:], contrib, contrib))]
        forward.append((xc.__setitem__, (lvl.gather_rows[:tt], tops)))
    backward: list[tuple] = []
    for lvl, diag_t, rect_t in zip(
        reversed(program.levels), reversed(panels.diag_t), reversed(panels.rect_t)
    ):
        size, tt = lvl.size, lvl.top_total
        acc, t1, t2 = scratch[:size], scratch[size : size + tt], scratch[size + tt : size + 2 * tt]
        backward += [(x.take, (lvl.gather_rows, 0, acc, "clip")),
                     (scratch[size : size + 2 * tt].fill, (0.0,))]
        if size > tt:
            backward += [_matvec(rect_t, acc[tt:], t1),
                         (np.subtract, (acc[:tt], t1, acc[:tt]))]
        backward += [_matvec(diag_t, acc[:tt], t2),
                     (x.__setitem__, (lvl.gather_rows[:tt], t2))]
    ws.forward, ws.backward, ws.panels = tuple(forward), tuple(backward), panels


def _sweep(tape: tuple) -> None:
    """Run one sweep: every call of the tape, in order."""
    for call, args in tape:
        call(*args)


# ------------------------------------------------------------------ public
def _resolve_program(
    factor: SupernodalFactor,
    prep: PreparedFactor,
    program: LevelProgram | None,
) -> tuple[LevelProgram, FusedPanels]:
    """Pair a program with its packed panels, preferring the caches.

    ``program=None`` and passing the structure's cached program both hit
    the memoized panels; only a hand-built program pays to pack inline.
    """
    cached = program_for(factor.stree)
    if program is None or program is cached:
        return cached, fused_panels_for(factor)
    return program, build_fused_panels(program, prep)


@contextmanager
def _lease(
    prep: PreparedFactor, program: LevelProgram, panels: FusedPanels, m: int
) -> Iterator[FusedWorkspace]:
    """Lease *program*'s workspace at *m* columns from *prep*'s arena, tapes bound to *panels*.

    A hand-built program packs fresh panels on every call, so its tapes
    are recompiled each time; the cached program's are compiled once.
    """
    with prep.arena.lease(program, ("fused", m), lambda: build_fused_workspace(program, m)) as ws:
        if ws.panels is not panels:
            _bind(ws, program, panels)
        yield ws


def warm_fused(factor: SupernodalFactor, *, program: LevelProgram | None = None) -> None:
    """Build the workspace and tapes a one-column fused solve of *factor* runs on."""
    prep = prepare_factor(factor)
    program, panels = _resolve_program(factor, prep, program)
    with _lease(prep, program, panels, 1):
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
    prep = prepare_factor(factor)
    program, panels = _resolve_program(factor, prep, program)
    b, squeeze = rhs_view(b, factor.n)
    with _lease(prep, program, panels, b.shape[1]) as ws:
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
    prep = prepare_factor(factor)
    program, panels = _resolve_program(factor, prep, program)
    b, squeeze = rhs_view(b, factor.n)
    with _lease(prep, program, panels, b.shape[1]) as ws:
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
    prep = prepare_factor(factor)
    program, panels = _resolve_program(factor, prep, program)
    b, squeeze = rhs_view(b, factor.n)
    with _lease(prep, program, panels, b.shape[1]) as ws:
        x = ws.xc[: factor.n]
        x[...] = b
        _sweep(ws.forward)
        _sweep(ws.backward)
        x = x.copy()
    return x[:, 0] if squeeze else x
