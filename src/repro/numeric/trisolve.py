"""Serial forward elimination and backward substitution.

Implements Section 2 of the paper in its sequential form:

* **Forward** (``L y = b``): leaves to root.  At each supernode, gather the
  right-hand-side entries of the supernode's ``t`` columns into the top of
  a length-``n`` work vector, reduce the children's contribution blocks
  into it (ascending child order), solve the dense ``t x t`` triangle as a
  product with its inverse, multiply the ``(n-t) x t`` rectangle by the
  solved top and subtract it from the bottom — that bottom block is this
  node's contribution, passed up the assembly tree for the parent to
  scatter in.
* **Backward** (``L^T x = y``): root to leaves.  At each supernode, gather
  the bottom ``n - t`` entries from already-solved ancestor variables,
  subtract ``R^T`` times the bottom from the top, and multiply by the
  transposed inverse.

The triangle inverses are the factor's own
(:meth:`~repro.numeric.supernodal.SupernodalFactor.diagonal_inverses`,
computed once per factor, with its pivot screen), so a zero or
non-finite pivot raises :class:`ValueError` before anything is solved.

For ``m`` right-hand sides every vector op becomes the corresponding
``(· x m)`` matrix op — exactly the paper's NRHS generalisation.

The forward sweep deliberately uses the *hierarchical contribution* form
(per-node accumulators reduced in ascending child order) rather than
scattering each rectangle straight into ``y``: that is the one summation
order every schedule of the level program can reproduce, so serial and
fused results (and the engine baseline's) are **bitwise identical** — same canonical
kernels (:mod:`repro.numeric.kernels`), same operands, same order: the
triangle and rectangle products are zero-started, strictly sequential
ascending sums (forward over the panel's columns ``k``, backward over its
rows), the order of the compiled sparse products the fused backend runs
per level.
The same goes for the extend-add: every accumulator row starts at +0.0
and then receives its own right-hand-side entry (top rows only) and its
children's contributions in ascending child order — ``np.add(y[cols],
0.0)`` rather than a plain copy, because the fused backend's replay
operator starts each row at +0.0 too, and ``+0.0 + -0.0`` is ``+0.0``:
a ``-0.0`` right-hand-side entry must come out of both executions with
the same sign.
Simplicial variants over :class:`LowerCSC` serve as independent references.
"""

from __future__ import annotations

import numpy as np

from repro.numeric.kernels import rect_apply, rect_apply_t, tri_apply, tri_apply_t
from repro.numeric.supernodal import SupernodalFactor
from repro.sparse.csc import LowerCSC
from repro.util.validation import as_real_rhs


def rhs_view(b: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """*b* as a float64 ``(n, nrhs)`` block, validated but not copied.

    Returns ``(matrix, squeeze)`` where ``squeeze`` records whether the
    caller passed a plain vector (then ``matrix`` is its one-column
    view).  Complex input raises :class:`TypeError`, a 0-d, 3-d or
    wrongly sized one :class:`ValueError`.  For a caller that copies the
    block into a buffer of its own (the fused backend's workspace).
    """
    b = as_real_rhs(b, "b")
    if b.shape[0] != n:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {n}")
    if b.ndim == 1:
        return b[:, None], True
    if b.ndim == 2:
        return b, False
    raise ValueError("rhs must be a vector or a 2-D block of vectors")


def as_rhs_matrix(b: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Coerce *b* to a fresh float64 ``(n, nrhs)`` block.

    Returns ``(matrix, squeeze)`` where ``squeeze`` records whether the
    caller passed a plain vector and should get one back.  Complex input
    raises :class:`TypeError`, a 0-d or wrongly sized one
    :class:`ValueError`, before anything is copied.  Shared by the
    serial solvers here and the real execution backends in
    :mod:`repro.exec`, so every backend normalises right-hand sides the
    same way.
    """
    view, squeeze = rhs_view(b, n)
    return view.copy(), squeeze


# ----------------------------------------------------------------- simplicial
def forward_simplicial(l: LowerCSC, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` column by column (reference implementation)."""
    y, squeeze = as_rhs_matrix(b, l.n)
    for j in range(l.n):
        rows, vals = l.column(j)
        y[j] /= vals[0]
        if rows.shape[0] > 1:
            y[rows[1:]] -= np.outer(vals[1:], y[j])
    return y[:, 0] if squeeze else y


def backward_simplicial(l: LowerCSC, b: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = b`` column by column (reference implementation)."""
    x, squeeze = as_rhs_matrix(b, l.n)
    for j in range(l.n - 1, -1, -1):
        rows, vals = l.column(j)
        if rows.shape[0] > 1:
            x[j] -= vals[1:] @ x[rows[1:]]
        x[j] /= vals[0]
    return x[:, 0] if squeeze else x


# ----------------------------------------------------------------- supernodal
def forward_supernodal(f: SupernodalFactor, b: np.ndarray) -> np.ndarray:
    """Supernodal forward elimination ``L y = b`` (leaves -> root)."""
    y, squeeze = as_rhs_matrix(b, f.n)
    stree = f.stree
    inverses = f.diagonal_inverses()
    m = y.shape[1]
    contrib: list[np.ndarray | None] = [None] * stree.nsuper
    for s in stree.topo_order():
        sn = stree.supernodes[s]
        block = f.blocks[s]
        t = sn.t
        acc = np.zeros((sn.n, m))
        np.add(y[sn.col_lo : sn.col_hi], 0.0, out=acc[:t])
        for c in stree.children[s]:
            u = contrib[c]
            if u is not None:
                if u.size:
                    acc[np.searchsorted(sn.rows, stree.supernodes[c].below)] += u
                contrib[c] = None
        solved = tri_apply(inverses[s], acc[:t])
        y[sn.col_lo : sn.col_hi] = solved
        if sn.n > t:
            contrib[s] = acc[t:] - rect_apply(block[t:, :t], solved)
    return y[:, 0] if squeeze else y


def backward_supernodal(f: SupernodalFactor, b: np.ndarray) -> np.ndarray:
    """Supernodal backward substitution ``L^T x = b`` (root -> leaves)."""
    x, squeeze = as_rhs_matrix(b, f.n)
    stree = f.stree
    inverses = f.diagonal_inverses()
    for s in reversed(stree.topo_order()):
        sn = stree.supernodes[s]
        block = f.blocks[s]
        t = sn.t
        top = x[sn.col_lo : sn.col_hi]
        if sn.n > t:
            top = top - rect_apply_t(block[t:, :t], x[sn.below])
        x[sn.col_lo : sn.col_hi] = tri_apply_t(inverses[s], top)
    return x[:, 0] if squeeze else x


def solve_supernodal(f: SupernodalFactor, b: np.ndarray) -> np.ndarray:
    """Full solve ``A x = b`` given ``A = L L^T``: forward then backward."""
    return backward_supernodal(f, forward_supernodal(f, b))
