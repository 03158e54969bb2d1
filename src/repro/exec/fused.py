"""The fused, level-batched execution backend (``backend="fused"``).

A per-node executor's hot path is Python dispatch: one loop iteration and
one scatter loop per supernode.  On fine-grained elimination trees
(2-D/3-D grid problems are ~85% width-1 supernodes) that overhead dwarfs
the dense kernels (``exec.engine.*`` against ``exec.fused.*`` in
``benchmarks/spine/README.md``).  This module executes the
:class:`~repro.exec.plan.LevelProgram` compiled from the plan — per level:

* one ``take`` gathers every panel top of the level into the packed
  accumulator;
* one ``take`` + ``np.add.at`` replays all child-contribution
  scatters of the level through flat int64 index vectors, in the plan's
  (parent ascending, child ascending) order — ``np.add.at`` applies
  updates in index order, so the reduction is exactly the plan's
  deterministic ascending-child sum;
* the width-1 lane solves all its panels with one broadcast divide, one
  replicated multiply and one subtract (forward) or one level-wide
  product + ``np.add.reduceat`` (backward);
* wider panels run bucketed by width — per node one ``dtrsm`` and one
  column-invariant rectangle product
  (:func:`repro.numeric.kernels.rect_apply`), because a *batched*
  triangular solve would have to reassociate the arithmetic and break
  bitwise agreement, and a plain GEMM would round differently at
  different NRHS widths (which would break the serving layer's
  coalescing-transparency guarantee).

Every buffer comes from a :class:`~repro.exec.arena.FusedWorkspace`
leased from the prepared factor's arena, so a steady-state solve
performs no per-node allocations at all.  All dense math matches the
canonical kernels in :mod:`repro.numeric.kernels` op for op; solutions
are bitwise identical to the ``serial`` reference (and to the engine
baseline, :func:`repro.exec.engine.solve_exec`).

Gathers call ``ndarray.take`` directly: ``np.take`` reaches the same C
routine through a Python-level ``fromnumeric`` wrapper, several hundred
times per solve.
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
from repro.exec.plan import LevelProgram
from repro.numeric.kernels import rect_apply, rect_apply_t
from repro.numeric.supernodal import SupernodalFactor
from repro.numeric.trisolve import as_rhs_matrix


@dataclass(frozen=True)
class FusedPanels:
    """Packed width-1 panel values, one pair of arrays per level.

    ``d1[li]`` holds the diagonal scalars of the level's width-1 nodes as
    a ``(k, 1)`` column (ones order), ``r1[li]`` the stacked rectangle
    columns of its first ``k_below`` nodes as ``(b, 1)`` — the value-side
    complement of the structure-only :class:`LevelProgram`.  Wider panels
    need no packing: the fused loop reuses the prepared factor's
    per-node ``diag``/``rect`` views directly.
    """

    d1: tuple[np.ndarray, ...]
    r1: tuple[np.ndarray, ...]


def build_fused_panels(program: LevelProgram, prep: PreparedFactor) -> FusedPanels:
    """Pack the width-1 values of *prep* in *program*'s level layout."""
    d1_list: list[np.ndarray] = []
    r1_list: list[np.ndarray] = []
    for lvl in program.levels:
        ones = lvl.ones
        if ones is None:
            d1_list.append(np.empty((0, 1)))
            r1_list.append(np.empty((0, 1)))
            continue
        d1 = np.array(
            [prep.diag[int(s)][0, 0] for s in ones.nodes], dtype=np.float64
        )[:, None]
        parts = [prep.rect[int(s)][:, 0] for s in ones.nodes[: ones.k_below]]
        r1 = (np.concatenate(parts) if parts else np.empty(0))[:, None]
        d1_list.append(d1)
        r1_list.append(r1)
    return FusedPanels(d1=tuple(d1_list), r1=tuple(r1_list))


# ------------------------------------------------------------------ sweeps
def _forward_levels(
    program: LevelProgram,
    prep: PreparedFactor,
    panels: FusedPanels,
    y: np.ndarray,
    ws: FusedWorkspace,
) -> None:
    """In-place forward elimination over the (n, m) block, level by level."""
    contrib = ws.contrib
    for lvl in program.levels:
        tt = lvl.top_total
        acc = ws.acc[: lvl.size]
        if lvl.size > tt:
            acc[tt:] = 0.0
        y.take(lvl.top_src, axis=0, out=acc[:tt])
        nsc = lvl.scatter_src.size
        if nsc:
            contrib.take(lvl.scatter_src, axis=0, out=ws.gather[:nsc])
            np.add.at(acc, lvl.scatter_dst, ws.gather[:nsc])
        ones = lvl.ones
        if ones is not None:
            tops = acc[: ones.k]
            np.divide(tops, panels.d1[lvl.index], out=tops)
            y[ones.cols] = tops
            if ones.b:
                rep = ws.rep[: ones.b]
                tops.take(ones.rep_idx, axis=0, out=rep)
                np.multiply(rep, panels.r1[lvl.index], out=rep)
                lo = ones.contrib_lo
                np.subtract(acc[tt:tt + ones.b], rep, out=contrib[lo:lo + ones.b])
        for g in lvl.groups:
            t = g.t
            for i in range(g.nodes.size):
                s = int(g.nodes[i])
                to = int(g.top_off[i])
                cl = int(g.col_lo[i])
                solved = dtrsm(1.0, prep.diag[s], acc[to:to + t],
                               lower=1, overwrite_b=1)
                y[cl:cl + t] = solved
                nb = int(g.nb[i])
                if nb:
                    bo = int(g.below_off[i])
                    co = int(g.contrib_off[i])
                    rect_apply(prep.rect[s], solved,
                               out=ws.wk[:nb], tmp=ws.wk2[:nb])
                    np.subtract(acc[bo:bo + nb], ws.wk[:nb],
                                out=contrib[co:co + nb])


def _backward_levels(
    program: LevelProgram,
    prep: PreparedFactor,
    panels: FusedPanels,
    x: np.ndarray,
    ws: FusedWorkspace,
) -> None:
    """In-place backward substitution over the (n, m) block, root level first."""
    for lvl in reversed(program.levels):
        ngr = lvl.gather_rows.size
        if ngr:
            x.take(lvl.gather_rows, axis=0, out=ws.gather[:ngr])
        ones = lvl.ones
        if ones is not None:
            kb = ones.k_below
            top = ws.top[: ones.k]
            x.take(ones.cols, axis=0, out=top)
            if ones.b:
                rep = ws.rep[: ones.b]
                np.multiply(ws.gather[: ones.b], panels.r1[lvl.index], out=rep)
                np.add.reduceat(rep, ones.seg_starts, axis=0, out=ws.dot[:kb])
                np.subtract(top[:kb], ws.dot[:kb], out=top[:kb])
            np.divide(top, panels.d1[lvl.index], out=top)
            x[ones.cols] = top
        for g in lvl.groups:
            t = g.t
            for i in range(g.nodes.size):
                s = int(g.nodes[i])
                cl = int(g.col_lo[i])
                nb = int(g.nb[i])
                top = ws.top[:t]
                if nb:
                    go = int(g.gather_off[i])
                    rect_apply_t(prep.rect[s], ws.gather[go:go + nb],
                                 out=ws.wk[:t], tmp=ws.wk2[:nb])
                    np.subtract(x[cl:cl + t], ws.wk[:t], out=top)
                else:
                    np.copyto(top, x[cl:cl + t])
                x[cl:cl + t] = dtrsm(1.0, prep.diag[s], top,
                                     lower=1, trans_a=1, overwrite_b=1)


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
        _forward_levels(program, prep, panels, y, ws)
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
        _backward_levels(program, prep, panels, x, ws)
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
        _forward_levels(program, prep, panels, x, ws)
        _backward_levels(program, prep, panels, x, ws)
    return x[:, 0] if squeeze else x
