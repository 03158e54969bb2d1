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
``tops -= F.T @ below`` and ``x[rows] = D.T @ tops`` — four calls a level
each way, whatever the level's width.

Every buffer the sweeps write comes from a
:class:`~repro.exec.arena.FusedWorkspace` leased from the prepared
factor's arena (scipy allocates each level's three products), so a
steady-state solve performs no per-node allocations at all.  All dense
math matches the canonical kernels in :mod:`repro.numeric.kernels` op
for op; solutions are bitwise identical to the ``serial`` reference (and
to the engine baseline, :func:`repro.exec.engine.solve_exec`).

The backward gather calls ``ndarray.take`` directly (``np.take`` reaches
the same C routine through a Python-level ``fromnumeric`` wrapper) and
with ``mode="clip"``: under the default ``mode="raise"`` numpy builds the
result in a temporary and copies it into ``out``, which costs more than
the gather.  Every index vector and operator is in range by construction
— the compiler derives them from the plan and the certifier re-derives
each one (``schedule-program-*``).
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array

from repro.exec.arena import FusedWorkspace, build_fused_workspace
from repro.exec.cache import (
    PreparedFactor,
    fused_panels_for,
    prepare_factor,
    program_for,
)
from repro.exec.plan import LevelProgram
from repro.numeric.supernodal import SupernodalFactor
from repro.numeric.trisolve import as_rhs_matrix, rhs_view


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


# ------------------------------------------------------------------ sweeps
def _forward_levels(program: LevelProgram, panels: FusedPanels, ws: FusedWorkspace) -> None:
    """In-place forward elimination over ``ws.xc = [y | contrib]``, level by level."""
    xc = ws.xc
    n = program.n
    for lvl, diag, rect in zip(program.levels, panels.diag, panels.rect):
        tt = lvl.top_total
        acc = lvl.replay @ xc
        tops = diag @ acc[:tt]
        if lvl.size > tt:
            c_lo = n + lvl.buckets[0].contrib_lo  # the buckets' slices are consecutive
            np.subtract(acc[tt:], rect @ tops, out=xc[c_lo : c_lo + lvl.size - tt])
        xc[lvl.gather_rows[:tt]] = tops


def _backward_levels(
    program: LevelProgram,
    panels: FusedPanels,
    x: np.ndarray,
    ws: FusedWorkspace,
) -> None:
    """In-place backward substitution over the (n, m) block, root level first."""
    for lvl, diag_t, rect_t in zip(
        reversed(program.levels), reversed(panels.diag_t), reversed(panels.rect_t)
    ):
        tt = lvl.top_total
        acc = ws.acc[: lvl.size]
        x.take(lvl.gather_rows, axis=0, out=acc, mode="clip")
        tops = acc[:tt]
        if lvl.size > tt:
            np.subtract(tops, rect_t @ acc[tt:], out=tops)
        x[lvl.gather_rows[:tt]] = diag_t @ tops


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


def _lease(
    prep: PreparedFactor, program: LevelProgram, m: int
) -> AbstractContextManager[FusedWorkspace]:
    """Lease the fused workspace of *program* at *m* columns from *prep*'s arena."""
    return prep.arena.lease(
        ("fused", id(program), m), lambda: build_fused_workspace(program, m)
    )


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
    with _lease(prep, program, b.shape[1]) as ws:
        y = ws.xc[: factor.n]
        y[...] = b
        _forward_levels(program, panels, ws)
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
    x, squeeze = as_rhs_matrix(b, factor.n)
    with _lease(prep, program, x.shape[1]) as ws:
        _backward_levels(program, panels, x, ws)
    return x[:, 0] if squeeze else x


def solve_fused(
    factor: SupernodalFactor,
    b: np.ndarray,
    *,
    program: LevelProgram | None = None,
) -> np.ndarray:
    """Full ``A x = b`` solve (forward then backward) on the fused backend.

    Both sweeps run inside one workspace lease, on its solution rows, so
    a steady-state solve against a prepared factor performs no per-node
    allocations.
    """
    prep = prepare_factor(factor)
    program, panels = _resolve_program(factor, prep, program)
    b, squeeze = rhs_view(b, factor.n)
    with _lease(prep, program, b.shape[1]) as ws:
        x = ws.xc[: factor.n]
        x[...] = b
        _forward_levels(program, panels, ws)
        _backward_levels(program, panels, x, ws)
        x = x.copy()
    return x[:, 0] if squeeze else x
