"""Canonical dense solve kernels shared by every real execution.

The repo has two real executions of the triangular solves and a
reference: the fused level program (:mod:`repro.exec.fused`, what
``solve(backend="fused")`` and the serving layer run), the serial
supernodal walker (:mod:`repro.numeric.trisolve`, the reference) and the
thread-pool engine (:mod:`repro.exec.engine`, kept as a measured baseline
and second bitwise reference only).  All promise *bitwise identical*
solutions, which is only possible if every floating-point operation is
performed by the same kernel on the same operands in the same order.
This module is that single source of truth:

* :func:`solve_lower` / :func:`solve_lower_t` — the ``t x t`` diagonal
  solve.  Width-1 panels use an elementwise divide (the op the fused
  backend applies to a whole level of width-1 panels at once); wider
  panels call BLAS ``dtrsm`` directly, never LAPACK ``trtrs`` or a
  hand-rolled sweep, so the rounding of the triangular solve is the
  same function of the values everywhere.
* :func:`rect_apply` / :func:`rect_apply_t` — the rectangle products
  ``R @ solved`` and ``R.T @ xg``.  These used to be plain GEMM calls,
  but BLAS ``dgemm`` picks different internal kernels for different
  right-hand-side widths, so column ``j`` of an ``(nb, t) @ (t, 16)``
  product is *not* bitwise equal to the ``(nb, t) @ (t, 1)`` product of
  the same column (measured on OpenBLAS; ``dtrsm`` does not have this
  problem).  The serving layer (:mod:`repro.serve`) coalesces
  independent single-column requests into wide batches and promises the
  packed result is indistinguishable from solving each column alone —
  so the canonical kernels accumulate in an order that is a fixed
  function of each *column*, never of the batch width:

  - ``rect_apply`` sums rank-1 terms ``R[:, k] * solved[k, :]`` in
    ascending ``k`` (elementwise broadcast products, one add per term);
  - ``rect_apply_t`` forms output row ``i`` as the ascending-row
    ``np.add.reduceat`` sum of ``R[:, i] * xg``.  A BLAS ``dot`` may
    reassociate the sum, and the fused backend reduces a whole level of
    width-1 panels with one ``reduceat`` call over its segments — so
    the per-node path uses the identical one-segment reduction.

  Every multi-column kernel is therefore **column-slice invariant**:
  column ``j`` of the ``m``-column result equals the 1-column result on
  ``operand[:, j:j+1]`` bit for bit, for every ``m``.

Anything not covered here (elementwise adds/subtracts/multiplies, row
gathers/scatters) is column-slice invariant and bitwise reproducible by
construction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm

#: The single-segment index set for :func:`rect_apply_t`'s ``reduceat``.
_SEG0 = np.zeros(1, dtype=np.intp)


def solve_lower(diag: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Solve ``diag @ solved = top`` with *diag* dense lower triangular.

    ``top`` is the ``(t, m)`` right-hand-side block; the result is a new
    array (``top`` is never modified).  Width-1 panels are a scalar
    divide — exactly the op the fused backend broadcasts over a level.
    """
    if diag.shape[0] == 1:
        return top / diag[0, 0]
    return dtrsm(1.0, diag, top, lower=1)


def solve_lower_t(diag: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Solve ``diag.T @ solved = top`` (the backward-substitution twin)."""
    if diag.shape[0] == 1:
        return top / diag[0, 0]
    return dtrsm(1.0, diag, top, lower=1, trans_a=1)


def rect_apply(
    rect: np.ndarray,
    solved: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """``rect @ solved`` with a width-invariant accumulation order.

    *rect* is ``(nb, t)``, *solved* ``(t, m)``; returns the ``(nb, m)``
    product as the ascending-``k`` sum of rank-1 terms
    ``rect[:, k] * solved[k, :]``.  Each term is an elementwise
    broadcast product and each add is elementwise, so column ``j`` of
    the result depends only on ``solved[:, j]`` — never on ``m``.

    ``out`` (``(nb, m)``) receives the product, ``tmp`` (``(nb, m)``)
    holds the intermediate terms; both are allocated when omitted, so
    the zero-allocation fused path passes workspace slices and the
    serial walker passes nothing.
    """
    nb = rect.shape[0]
    t = rect.shape[1]
    if out is None:
        out = np.empty((nb, solved.shape[1]))
    np.multiply(rect[:, 0:1], solved[0:1], out=out)
    if t > 1:
        if tmp is None:
            tmp = np.empty_like(out)
        for k in range(1, t):
            np.multiply(rect[:, k : k + 1], solved[k : k + 1], out=tmp)
            np.add(out, tmp, out=out)
    return out


def rect_apply_t(
    rect: np.ndarray,
    xg: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """``rect.T @ xg`` with a width-invariant accumulation order.

    *rect* is ``(nb, t)``, *xg* the gathered ancestor rows ``(nb, m)``;
    returns the ``(t, m)`` product where row ``i`` is the dot of
    rectangle column ``i`` against *xg* — products reduced sequentially
    in ascending row order by ``np.add.reduceat`` over one segment, the
    same reduction the fused backend applies per segment of a level-wide
    product buffer (a BLAS ``dot`` would not agree bitwise).
    Column-slice invariant for the same reason as :func:`rect_apply`.

    ``out`` (``(t, m)``) and ``tmp`` (``(nb, m)``) follow the same
    workspace convention as :func:`rect_apply`.
    """
    nb = rect.shape[0]
    t = rect.shape[1]
    if out is None:
        out = np.empty((t, xg.shape[1]))
    if tmp is None:
        tmp = np.empty((nb, xg.shape[1]))
    for i in range(t):
        np.multiply(rect[:, i : i + 1], xg, out=tmp)
        np.add.reduceat(tmp, _SEG0, axis=0, out=out[i : i + 1])
    return out
