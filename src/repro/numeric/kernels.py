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
  backend applies to a whole bucket of width-1 panels at once); wider
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
  function of each *column*, never of the batch width.  Each is one
  broadcast product and one numpy reduction, and the fused backend makes
  the same two calls on a whole (level, width) bucket of rectangles:

  - ``rect_apply`` forms all rank-1 terms ``R[:, k] * solved[k, :]`` as
    one ``(t, nb, m)`` stack and sums it over ``k`` with
    :func:`sum_terms`: strictly sequential, ascending ``k``, starting
    from the ``k = 0`` term (signed zeros survive);
  - ``rect_apply_t`` forms ``R[:, i] * xg`` for every ``i`` as one
    ``(nb, t, m)`` stack and reduces it over the rows with a one-segment
    ``np.add.reduceat``.  That is **not** a sequential sum: ``reduceat``
    runs numpy's reduce inner loop along the segment — the first product
    plus numpy's pairwise sum of the rest (eight interleaved partial
    sums, blocks of at most 128 terms, halved recursively above that) —
    an order that is a fixed function of the segment length ``nb`` alone,
    the same for every output row, column, stride and batch width.  It
    differs from the strictly sequential sum in the last bits for most
    ``nb >= 3``; a BLAS ``dot`` would differ from both.  The fused
    backend reduces a bucket with one ``reduceat`` over its segments, so
    each segment sees exactly this order.

  Every multi-column kernel is therefore **column-slice invariant**:
  column ``j`` of the ``m``-column result equals the 1-column result on
  ``operand[:, j:j+1]`` bit for bit, for every ``m``.

Both orders are properties of numpy's ``reduce`` / ``reduceat`` loops,
not of this module, so ``tests/test_kernels.py`` pins them against
explicit per-``k`` loops (values and signs of zero) and CI repeats that
on the oldest supported numpy.

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


def sum_terms(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = terms[0] + terms[1] + ...``, ascending over the leading axis.

    *terms* is a C-contiguous ``(t, ...)`` stack, *out* has its trailing
    shape.  The leading axis has the largest stride, so numpy's reduce
    walks it outermost: it copies ``terms[0]`` (``initial=None`` — an
    identity-initialised sum would turn ``-0.0`` into ``+0.0``) and adds
    each later term elementwise, so every output element sees the same
    ascending sequence whatever else is in the stack.  The exception is
    a single output element: the summed axis is then the only loop left,
    numpy would run its pairwise inner loop along it, and one column
    alone would round differently from the same column inside a block —
    that case takes the sequential ``accumulate`` (in place; *terms* is
    scratch either way).
    """
    if out.size == 1:
        np.add.accumulate(terms, axis=0, out=terms)
        out[...] = terms[-1]
        return out
    return np.add.reduce(terms, axis=0, out=out, initial=None)


def _product_rows(tmp: np.ndarray | None, rows: int, m: int) -> np.ndarray:
    """``(rows, m)`` scratch for a product stack: *tmp* if it has the room."""
    if tmp is not None and tmp.shape[0] >= rows:
        return tmp[:rows]
    return np.empty((rows, m))


def rect_apply(
    rect: np.ndarray,
    solved: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """``rect @ solved`` with a width-invariant accumulation order.

    *rect* is ``(nb, t)``, *solved* ``(t, m)``; returns the ``(nb, m)``
    product as the ascending-``k`` sum of rank-1 terms
    ``rect[:, k] * solved[k, :]`` (:func:`sum_terms`).  Each term is an
    elementwise broadcast product and each add is elementwise, so column
    ``j`` of the result depends only on ``solved[:, j]`` — never on ``m``.

    ``out`` (``(nb, m)``) receives the product; ``tmp`` holds the term
    stack when it has ``nb * t`` rows of ``m`` columns.  Both are
    allocated when omitted (or, for ``tmp``, too small).
    """
    nb, t = rect.shape
    m = solved.shape[1]
    if out is None:
        out = np.empty((nb, m))
    if t == 1:  # a single term is its own sum
        return np.multiply(rect, solved, out=out)
    terms = _product_rows(tmp, t * nb, m).reshape(t, nb, m)
    np.multiply(rect.T[:, :, None], solved[:, None, :], out=terms)
    return sum_terms(terms, out)


def rect_apply_t(
    rect: np.ndarray,
    xg: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """``rect.T @ xg`` with a width-invariant accumulation order.

    *rect* is ``(nb, t)``, *xg* the gathered ancestor rows ``(nb, m)``;
    returns the ``(t, m)`` product where row ``i`` is the dot of
    rectangle column ``i`` against *xg*, the products reduced by
    ``np.add.reduceat`` over one segment — numpy's reduce inner loop
    (first product plus a pairwise sum of the rest; see the module
    docstring), a fixed function of ``nb`` per output element and the
    same reduction the fused backend applies per segment of a
    bucket-wide product (a BLAS ``dot`` would not agree bitwise).
    Column-slice invariant for the same reason as :func:`rect_apply`.

    ``out`` (``(t, m)``) and ``tmp`` follow :func:`rect_apply`.
    """
    nb, t = rect.shape
    m = xg.shape[1]
    if out is None:
        out = np.empty((t, m))
    terms = _product_rows(tmp, nb * t, m).reshape(nb, t, m)
    np.multiply(rect[:, :, None], xg[:, None, :], out=terms)
    np.add.reduceat(terms, _SEG0, axis=0, out=out[None])
    return out
