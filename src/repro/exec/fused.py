"""The fused, level-batched execution backend (``backend="fused"``).

A per-node executor's hot path is Python dispatch: one loop iteration and
one scatter loop per supernode.  On fine-grained elimination trees
(2-D/3-D grid problems are ~85% width-1 supernodes) that overhead dwarfs
the dense kernels (``exec.engine.*`` against ``exec.fused.*`` in
``benchmarks/spine/README.md``).  This module executes the
:class:`~repro.exec.plan.LevelProgram` compiled from the plan — per level:

* one ``take`` gathers every panel top of the level into the packed
  accumulator (and one fancy assignment writes the solved tops back);
* the child contributions are replayed round by round — ``take`` the
  sources, ``take`` the destination rows, add, assign back.  No
  destination repeats inside a round and a row's rounds follow the plan's
  (parent ascending, child ascending) order, so every row receives
  exactly the plan's deterministic ascending-child sum;
* every (level, width) bucket is one vectorized lane: the diagonal solve
  (one broadcast divide at width 1, one ``dtrsm`` per node above — a
  *batched* triangular solve would have to reassociate the arithmetic
  and break bitwise agreement), then for all of the bucket's rectangles
  at once one replicating ``take``, one broadcast product and one
  reduction — :func:`repro.numeric.kernels.sum_terms` over ``k``
  forward, ``np.add.reduceat`` over the below segments backward.  These
  are the two calls :func:`~repro.numeric.kernels.rect_apply` /
  :func:`~repro.numeric.kernels.rect_apply_t` make for one rectangle, so
  each node's rows round exactly as they do there — and a plain GEMM
  would round differently at different NRHS widths, which would break
  the serving layer's coalescing-transparency guarantee.

Every buffer comes from a :class:`~repro.exec.arena.FusedWorkspace`
leased from the prepared factor's arena, so a steady-state solve
performs no per-node allocations at all.  All dense math matches the
canonical kernels in :mod:`repro.numeric.kernels` op for op; solutions
are bitwise identical to the ``serial`` reference (and to the engine
baseline, :func:`repro.exec.engine.solve_exec`).

Gathers call ``ndarray.take`` directly (``np.take`` reaches the same C
routine through a Python-level ``fromnumeric`` wrapper, several hundred
times per solve) and with ``mode="clip"``: under the default
``mode="raise"`` numpy builds the result in a temporary and copies it
into ``out``, which costs more than the gather.  Every index vector is
in range by construction — the compiler derives them from the plan and
the certifier re-derives each one (``schedule-program-*``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm

from repro.exec.arena import FusedWorkspace, build_fused_workspace
from repro.exec.cache import (
    PreparedFactor,
    fused_panels_for,
    prepare_factor,
    program_for,
)
from repro.exec.plan import Level, LevelProgram
from repro.numeric.kernels import sum_terms
from repro.numeric.supernodal import SupernodalFactor
from repro.numeric.trisolve import as_rhs_matrix


@dataclass(frozen=True)
class FusedPanels:
    """Panel values packed per bucket, indexed ``[level][bucket]``.

    ``diag`` holds a width-1 bucket's diagonal scalars as one ``(k, 1)``
    column and a wider bucket's ``t x t`` triangles as a tuple (bucket
    node order; views of the prepared factor).  ``rect`` stacks the
    rectangles of the bucket's below-owning nodes as ``(b, t, 1)`` (a view
    of the factor's block where there is only one) — the value-side
    complement of the structure-only :class:`LevelProgram`.
    """

    diag: tuple[tuple[np.ndarray | tuple[np.ndarray, ...], ...], ...]
    rect: tuple[tuple[np.ndarray, ...], ...]


def build_fused_panels(program: LevelProgram, prep: PreparedFactor) -> FusedPanels:
    """Pack the panel values of *prep* in *program*'s bucket layout."""
    diag, rect = [], []
    for lvl in program.levels:
        d_lvl, r_lvl = [], []
        for bkt in lvl.buckets:
            nodes = bkt.nodes.tolist()
            if bkt.t == 1:
                d_lvl.append(np.array([prep.diag[s][0, 0] for s in nodes])[:, None])
            else:
                d_lvl.append(tuple(prep.diag[s] for s in nodes))
            parts = [prep.rect[s] for s in nodes[: bkt.k_below]]
            if len(parts) == 1:  # nothing to stack: keep the factor's own block
                r_lvl.append(parts[0][:, :, None])
            else:
                r_lvl.append(np.concatenate(parts or [np.empty((0, bkt.t))])[:, :, None])
        diag.append(tuple(d_lvl))
        rect.append(tuple(r_lvl))
    return FusedPanels(diag=tuple(diag), rect=tuple(rect))


# ------------------------------------------------------------------ sweeps
def _replay_rounds(
    acc: np.ndarray, contrib: np.ndarray, lvl: Level, gather: np.ndarray, rows: np.ndarray
) -> None:
    """``acc[dst] += contrib[src]`` for one level, duplicate destinations in order.

    Inside a round no destination repeats, so gather / add / assign loses
    no update; a row named by several rounds receives them in round order,
    which the compiler made the plan's order: the result of an in-order,
    entry-at-a-time scatter-add at a fraction of its cost.
    """
    lo = 0
    for hi in lvl.round_starts[1:]:
        dst = lvl.scatter_dst[lo:hi]
        contrib.take(lvl.scatter_src[lo:hi], axis=0, out=gather[: hi - lo], mode="clip")
        acc.take(dst, axis=0, out=rows[: hi - lo], mode="clip")
        np.add(rows[: hi - lo], gather[: hi - lo], out=rows[: hi - lo])
        acc[dst] = rows[: hi - lo]
        lo = hi


def _forward_levels(
    program: LevelProgram,
    panels: FusedPanels,
    y: np.ndarray,
    ws: FusedWorkspace,
) -> None:
    """In-place forward elimination over the (n, m) block, level by level."""
    m = y.shape[1]
    contrib = ws.contrib
    for lvl, diags, rects in zip(program.levels, panels.diag, panels.rect):
        tt = lvl.top_total
        acc = ws.acc[: lvl.size]
        if lvl.size > tt:
            acc[tt:] = 0.0
        y.take(lvl.top_src, axis=0, out=acc[:tt], mode="clip")
        _replay_rounds(acc, contrib, lvl, ws.gather, ws.prod)
        for bkt, diag, rect in zip(lvl.buckets, diags, rects):
            t = bkt.t
            tops = acc[bkt.top_lo : bkt.top_lo + bkt.k * t]
            if t == 1:
                np.divide(tops, diag, out=tops)
            else:
                for i, d in enumerate(diag):
                    tops[i * t : (i + 1) * t] = dtrsm(
                        1.0, d, tops[i * t : (i + 1) * t], lower=1, overwrite_b=1)
            b = bkt.b
            if b:
                # terms[k, j] = rect[j, k] * solved[owner(j)][k]: lay the
                # solved tops out k-major so one take replicates them.
                kb = bkt.k_below
                solved = ws.dot[: kb * t].reshape(t, kb, m)
                np.copyto(solved, tops[: kb * t].reshape(kb, t, m).transpose(1, 0, 2))
                terms = ws.prod[: b * t].reshape(t, b, m)
                solved.take(bkt.rep_idx, axis=1, out=terms, mode="clip")
                np.multiply(terms, rect.transpose(1, 0, 2), out=terms)
                out = contrib[bkt.contrib_lo : bkt.contrib_lo + b]
                np.subtract(acc[bkt.below_lo : bkt.below_lo + b],
                            sum_terms(terms, out), out=out)
        y[lvl.top_src] = acc[:tt]


def _backward_levels(
    program: LevelProgram,
    panels: FusedPanels,
    x: np.ndarray,
    ws: FusedWorkspace,
) -> None:
    """In-place backward substitution over the (n, m) block, root level first."""
    m = x.shape[1]
    for lvl, diags, rects in zip(
        reversed(program.levels), reversed(panels.diag), reversed(panels.rect)
    ):
        tt = lvl.top_total
        x.take(lvl.top_src, axis=0, out=ws.acc[:tt], mode="clip")
        ngr = lvl.gather_rows.size
        if ngr:
            x.take(lvl.gather_rows, axis=0, out=ws.gather[:ngr], mode="clip")
        for bkt, diag, rect in zip(lvl.buckets, diags, rects):
            t = bkt.t
            tops = ws.acc[bkt.top_lo : bkt.top_lo + bkt.k * t]
            b = bkt.b
            if b:
                go = bkt.below_lo - tt
                kt = bkt.k_below * t
                terms = ws.prod[: b * t].reshape(b, t, m)
                np.multiply(rect, ws.gather[go : go + b, None, :], out=terms)
                np.add.reduceat(terms, bkt.seg_starts, axis=0,
                                out=ws.dot[:kt].reshape(-1, t, m))
                np.subtract(tops[:kt], ws.dot[:kt], out=tops[:kt])
            if t == 1:
                np.divide(tops, diag, out=tops)
            else:
                for i, d in enumerate(diag):
                    tops[i * t : (i + 1) * t] = dtrsm(
                        1.0, d, tops[i * t : (i + 1) * t],
                        lower=1, trans_a=1, overwrite_b=1)
        x[lvl.top_src] = ws.acc[:tt]


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
    y, squeeze = as_rhs_matrix(b, factor.n)
    m = y.shape[1]
    with prep.arena.lease(
        ("fused", id(program), m), lambda: build_fused_workspace(program, m)
    ) as ws:
        _forward_levels(program, panels, y, ws)
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
    m = x.shape[1]
    with prep.arena.lease(
        ("fused", id(program), m), lambda: build_fused_workspace(program, m)
    ) as ws:
        _backward_levels(program, panels, x, ws)
    return x[:, 0] if squeeze else x


def solve_fused(
    factor: SupernodalFactor,
    b: np.ndarray,
    *,
    program: LevelProgram | None = None,
) -> np.ndarray:
    """Full ``A x = b`` solve (forward then backward) on the fused backend.

    Both sweeps run inside one workspace lease, so a steady-state solve
    against a prepared factor performs no per-node allocations.
    """
    prep = prepare_factor(factor)
    program, panels = _resolve_program(factor, prep, program)
    x, squeeze = as_rhs_matrix(b, factor.n)
    m = x.shape[1]
    with prep.arena.lease(
        ("fused", id(program), m), lambda: build_fused_workspace(program, m)
    ) as ws:
        _forward_levels(program, panels, x, ws)
        _backward_levels(program, panels, x, ws)
    return x[:, 0] if squeeze else x
