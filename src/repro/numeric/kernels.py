"""Canonical dense solve kernels shared by every real execution.

The repo has two real executions of the triangular solves and a
reference: the fused level program (:mod:`repro.exec.fused`, what
``solve(backend="fused")`` and the serving layer run), the serial
supernodal walker (:mod:`repro.numeric.trisolve`, the reference) and the
thread-pool engine (:mod:`repro.exec.engine`, kept as a measured baseline
and second bitwise reference only).  All promise *bitwise identical*
solutions, which is only possible if every floating-point operation is
performed by the same kernel on the same operands in the same order.
This module is that single source of truth.

Every kernel here is a product in the order of a compiled **sparse**
product — per output row a zero start, then one term at a time,
ascending, each product rounded before it is added.  A plain GEMM is
barred: BLAS ``dgemm`` picks different internal kernels for different
right-hand-side widths, so column ``j`` of an ``(nb, t) @ (t, 16)``
product is *not* bitwise equal to the ``(nb, t) @ (t, 1)`` product of the
same column (measured on OpenBLAS).  The serving layer
(:mod:`repro.serve`) coalesces independent single-column requests into
wide batches and promises the packed result is indistinguishable from
solving each column alone — so the canonical order is a fixed function of
each *column*, never of the batch width.

* :func:`tri_apply` / :func:`tri_apply_t` — the ``t x t`` diagonal solve,
  applied as a product with the block's inverse ``inv = tril(L_ss⁻¹)``
  (:meth:`repro.numeric.supernodal.SupernodalFactor.diagonal_inverses`;
  ``1 / pivot`` at width 1):

  - ``tri_apply``: output row ``i`` starts at ``+0.0`` and receives
    ``inv[i, k] * top[k, :]`` for ``k = 0, 1, …, i`` in that order — row
    ``i`` of the block-diagonal CSR operator the fused backend stores per
    level, which holds the lower triangle only;
  - ``tri_apply_t``: output row ``k`` starts at ``+0.0`` and receives
    ``inv[i, k] * top[i, :]`` for ``i = k, k + 1, …, t - 1`` in that order
    (the CSC view of the same arrays).

  Only ``k <= i`` is summed: the strict upper triangle is never
  multiplied, so an infinite or NaN operand cannot leak through one of its
  zeros (``0 * inf`` is NaN), exactly as the sparse product, which does
  not store those zeros, never sees it.
* :func:`rect_apply` / :func:`rect_apply_t` — the rectangle products
  ``R @ solved`` and ``R.T @ xg``:

  - ``rect_apply``: output row ``i`` starts at ``+0.0`` and receives
    ``rect[i, k] * solved[k, :]`` for ``k = 0, 1, …, t - 1`` in that
    order (scipy's CSR row loop);
  - ``rect_apply_t``: output row ``k`` starts at ``+0.0`` and receives
    ``rect[i, k] * xg[i, :]`` for ``i = 0, 1, …, nb - 1`` in that order
    (the CSC column loop over the *same* three arrays — the transpose is
    a reinterpretation, no value moves).

All four are strictly sequential ascending sums from a zero start, so a
row whose terms are all ``-0.0`` comes out ``+0.0``.  Every column of the
operand is carried through the same sequence independently of its
neighbours, which makes every multi-column kernel **column-slice
invariant**: column ``j`` of the ``m``-column result equals the 1-column
result on ``operand[:, j:j+1]`` bit for bit, for every ``m``.

The order has two realisations, kept bitwise equal by the tests.  The
fused backend lowers all of a level's diagonal inverses to one
block-diagonal ``scipy.sparse`` operator and its rectangles to another,
and runs scipy's ``csr_matvec(s)`` / ``csc_matvec(s)`` loop once per
level and operator (:func:`repro.exec.fused.build_fused_panels`).  The
kernels here serve one dense block at a time (the serial walker, the
engine baseline), where scipy's constructor would cost four times the
product and a kept operator a kilobyte per block: they form the terms as
one broadcast product and sum them with :func:`_ascending_sum` — numpy's
reduce over the leading axis, the same sequence.

Both are properties of library loops (scipy's ``*_matvec(s)``, numpy's
outer-axis ``reduce``), not of this module, so ``tests/test_kernels.py``
pins each against explicit per-``k`` Python loops (values and signs of
zero, every width) and against the other, and CI repeats that at the
oldest supported numpy and scipy.

:func:`solve_lower` / :func:`solve_lower_t` are the BLAS ``dtrsm``
substitution the diagonal solve used before it was inverted.  No solve
path calls them; they are the accuracy oracle the tests hold the
inverted kernels to, and a per-layer probe of ``benchmarks/spine``.

The extend-add follows the same rule: every accumulator row is a
zero-started, in-order sum.  The fused backend computes a level's
accumulators as one structure-only CSR product (``replay @ [y |
contrib]``, all coefficients 1.0, so every product is exact), whose row
loop starts at +0.0; the serial walker and the engine baseline therefore
start a node's top rows as ``np.add(y[cols], 0.0)`` and its below rows
at 0.0 before adding the children's contributions in ascending child
order.  A plain copy would keep a ``-0.0`` right-hand-side entry that
the product turns into ``+0.0``.

Anything not covered here (elementwise adds/subtracts, row
gathers/scatters) is column-slice invariant and bitwise reproducible by
construction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm


def solve_lower(diag: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Solve ``diag @ solved = top`` by substitution (the ``dtrsm`` oracle).

    ``top`` is the ``(t, m)`` right-hand-side block; the result is a new
    array (``top`` is never modified).  Width-1 panels are a scalar
    divide.  No solve path calls this; see :func:`tri_apply`.
    """
    if diag.shape[0] == 1:
        return top / diag[0, 0]
    return dtrsm(1.0, diag, top, lower=1)


def solve_lower_t(diag: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Solve ``diag.T @ solved = top`` (the backward twin of :func:`solve_lower`)."""
    if diag.shape[0] == 1:
        return top / diag[0, 0]
    return dtrsm(1.0, diag, top, lower=1, trans_a=1)


def _lower(t: int) -> np.ndarray:
    """``mask[i, k]`` is ``k <= i``."""
    return np.tri(t, dtype=bool)


def tri_apply(inv: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``inv @ top`` over the lower triangle: the forward diagonal solve.

    *inv* is the ``t x t`` inverse of a diagonal block, *top* the
    ``(t, m)`` right-hand side; returns a new ``(t, m)`` block whose row
    ``i`` is the zero-started ascending-``k`` sum of
    ``inv[i, k] * top[k, :]`` over ``k <= i`` only.
    """
    t = inv.shape[0]
    terms = np.zeros((t, t, top.shape[1]))  # terms[k, i] = inv[i, k] * top[k]
    np.multiply(inv.T[:, :, None], top[:, None, :], out=terms, where=_lower(t).T[:, :, None])
    return _ascending_sum(terms, np.empty_like(terms[0]))


def tri_apply_t(inv: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``inv.T @ top`` over the lower triangle: the backward diagonal solve.

    Row ``k`` of the result is the zero-started ascending-``i`` sum of
    ``inv[i, k] * top[i, :]`` over ``i >= k`` only — the CSC view of the
    operator :func:`tri_apply` reads as CSR.
    """
    t = inv.shape[0]
    terms = np.zeros((t, t, top.shape[1]))  # terms[i, k] = inv[i, k] * top[i]
    np.multiply(inv[:, :, None], top[:, None, :], out=terms, where=_lower(t)[:, :, None])
    return _ascending_sum(terms, np.empty_like(terms[0]))


def _ascending_sum(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = ((+0.0 + terms[0]) + terms[1]) + ...`` over the leading axis.

    *terms* is a C-contiguous ``(count, ...)`` stack, *out* has its
    trailing shape.  The leading axis has the largest stride, so numpy's
    reduce walks it outermost: it fills *out* with the initial ``+0.0``
    and adds each term elementwise, so every output element sees the
    same ascending sequence whatever else is in the stack.  The
    exception is a single output element: the summed axis is then the
    only loop left, numpy would run its pairwise inner loop along it, and
    one column alone would round differently from the same column inside
    a block — that case takes the sequential ``accumulate`` (in place;
    *terms* is scratch), whose first-term start differs from the zero
    start only in turning an all-``-0.0`` sum into ``-0.0``, which the
    final ``+ 0.0`` undoes.
    """
    if out.size == 1 and len(terms):
        np.add.accumulate(terms, axis=0, out=terms)
        return np.add(terms[-1], 0.0, out=out)
    return np.add.reduce(terms, axis=0, out=out, initial=0.0)


def rect_apply(
    rect: np.ndarray,
    solved: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """``rect @ solved`` with a width-invariant accumulation order.

    *rect* is ``(nb, t)``, *solved* ``(t, m)``; returns the ``(nb, m)``
    product, row ``i`` the zero-started ascending-``k`` sum of
    ``rect[i, k] * solved[k, :]`` — the CSR product of the module
    docstring, so column ``j`` of the result depends only on
    ``solved[:, j]``, never on ``m``.

    ``out`` (``(nb, m)``) receives the product when given.  ``tmp`` is
    accepted and ignored (the term stack is allocated per call); the
    argument goes once ``benchmarks/spine`` stops passing it.
    """
    nb, t = rect.shape
    m = solved.shape[1]
    if out is None:
        out = np.empty((nb, m))
    terms = np.empty((t, nb, m))
    np.multiply(rect.T[:, :, None], solved[:, None, :], out=terms)
    return _ascending_sum(terms, out)


def rect_apply_t(
    rect: np.ndarray,
    xg: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """``rect.T @ xg`` with a width-invariant accumulation order.

    *rect* is ``(nb, t)``, *xg* the gathered ancestor rows ``(nb, m)``;
    returns the ``(t, m)`` product, row ``k`` the zero-started
    ascending-``i`` sum of ``rect[i, k] * xg[i, :]`` — the CSC product
    over the arrays :func:`rect_apply` reads as CSR.  Column-slice
    invariant for the same reason.

    ``out`` (``(t, m)``) and ``tmp`` follow :func:`rect_apply`.
    """
    nb, t = rect.shape
    m = xg.shape[1]
    if out is None:
        out = np.empty((t, m))
    terms = np.empty((nb, t, m))
    np.multiply(rect[:, :, None], xg[:, None, :], out=terms)
    return _ascending_sum(terms, out)
