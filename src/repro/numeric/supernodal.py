"""Multifrontal supernodal Cholesky.

Follows the organisation the paper inherits from Liu's multifrontal method
(ref [12]): process supernodes bottom-up; at each supernode assemble a
dense frontal matrix from the original-matrix entries plus the children's
update matrices (extend-add), factor its leading ``t`` columns, and pass
the trailing ``(n-t) x (n-t)`` Schur complement up to the parent.

The factor is returned as a :class:`SupernodalFactor`: one dense ``n x t``
trapezoid per supernode — the exact objects the parallel triangular solvers
partition row- or column-wise (paper Figures 2-4).  The real solves apply
each diagonal block through its inverse, computed once per factor
(:meth:`SupernodalFactor.diagonal_inverses`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtri, dtrtrs

from repro.numeric.frontal import NotPositiveDefiniteError, dense_cholesky
from repro.sparse.csc import LowerCSC
from repro.symbolic.analyze import SymbolicFactor
from repro.symbolic.stree import SupernodalTree
from repro.util.segments import segment_ids


@dataclass
class SupernodalFactor:
    """The Cholesky factor stored supernode by supernode.

    ``blocks[s]`` is the dense ``n_s x t_s`` trapezoid of supernode ``s``:
    its top ``t_s x t_s`` part is lower triangular (the factored diagonal
    block) and the remaining ``(n_s - t_s) x t_s`` part is the
    below-diagonal rectangle.  Row ``r`` of the block corresponds to global
    row ``stree.supernodes[s].rows[r]``.
    """

    stree: SupernodalTree
    blocks: list[np.ndarray]
    _inverses: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.stree.n

    def nnz(self) -> int:
        return self.stree.factor_nnz()

    def diagonal_inverses(self) -> list[np.ndarray]:
        """``tril(L_ss⁻¹)`` of every supernode's diagonal block, computed once.

        Entry ``s`` is a C-ordered ``t x t`` array whose strict upper
        triangle is exactly zero: ``1 / pivot`` at width 1 (one vectorised
        divide over all width-1 supernodes), LAPACK ``dtrtri`` above.  Every
        real execution applies a diagonal block as a product with this
        inverse (:func:`repro.numeric.kernels.tri_apply`), so they all share
        its bits.

        The pivots are screened first, in one pass: a zero or non-finite
        one raises :class:`ValueError` naming the first bad supernode and
        its global column, before anything is inverted.
        """
        if self._inverses is None:
            self._inverses = _invert_diagonals(self.stree, self.blocks)
        return self._inverses

    def to_lower_csc(self, l_indptr: np.ndarray, l_indices: np.ndarray) -> LowerCSC:
        """Scatter the trapezoids into the simplicial CSC pattern."""
        data = np.zeros(int(l_indptr[-1]))
        column = segment_ids(l_indptr)
        for sn, block in zip(self.stree.supernodes, self.blocks):
            lo, hi = int(l_indptr[sn.col_lo]), int(l_indptr[sn.col_hi])
            # The supernode's rows are a superset of each of its columns'
            # patterns (equality for fundamental supernodes).
            data[lo:hi] = block[np.searchsorted(sn.rows, l_indices[lo:hi]),
                                column[lo:hi] - sn.col_lo]
        return LowerCSC(n=self.n, indptr=l_indptr.copy(), indices=l_indices.copy(), data=data)

    def to_dense(self) -> np.ndarray:
        """Dense L (testing only)."""
        out = np.zeros((self.n, self.n))
        for sn, block in zip(self.stree.supernodes, self.blocks):
            out[sn.rows, sn.col_lo : sn.col_hi] = block
        # A diagonal block's strict upper triangle lands above the diagonal of L.
        return np.tril(out)


def _invert_diagonals(stree: SupernodalTree, blocks: list[np.ndarray]) -> list[np.ndarray]:
    width = stree.col_hi - stree.col_lo
    first = np.cumsum(width) - width  # each supernode's first pivot in flat
    flat = (np.concatenate([blk[: blk.shape[1]].diagonal() for blk in blocks])
            if blocks else np.empty(0))
    bad = np.flatnonzero((flat == 0.0) | ~np.isfinite(flat))
    if bad.size:
        s = int(np.searchsorted(first, bad[0], side="right")) - 1
        raise ValueError(
            f"singular or non-finite diagonal in supernode {s} "
            f"(global column {int(stree.col_lo[s] + bad[0] - first[s])}): "
            "triangular solve is undefined for this factor"
        )
    inverses: list[np.ndarray] = [None] * len(blocks)  # type: ignore[list-item]
    unit = np.flatnonzero(width == 1)
    for s, inv in zip(unit.tolist(), (1.0 / flat[first[unit]]).reshape(-1, 1, 1)):
        inverses[s] = inv
    for s in np.flatnonzero(width > 1).tolist():
        t = int(width[s])
        inv, info = dtrtri(blocks[s][:t, :t], lower=1)
        if info != 0:  # pragma: no cover - the screen above rules it out
            raise ValueError(f"dtrtri failed on supernode {s} (info {info})")
        inverses[s] = np.tril(inv)
    return inverses


def _solve_below(diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``diag⁻¹ rhs`` as the LAPACK call ``solve_triangular`` makes.

    The same ``dtrtrs`` on the same operands, so the same bits, without
    the wrapper's validation, which costs more than the solve on a small
    front.  ``diag`` comes fresh from ``np.linalg.cholesky``: C-ordered,
    so LAPACK reads it as the upper triangle of its transpose, unless it
    is 1 x 1 and also F-ordered.
    """
    if diag.flags.f_contiguous:
        x, info = dtrtrs(diag, rhs, lower=1, trans=0)
    else:
        x, info = dtrtrs(diag.T, rhs, lower=0, trans=1)
    if info != 0:  # pragma: no cover - a Cholesky factor has a positive diagonal
        raise ValueError(f"dtrtrs failed (info {info})")
    return x


def cholesky_supernodal(sym: SymbolicFactor) -> SupernodalFactor:
    """Multifrontal factorization of ``sym.a_perm``.

    Only the lower triangle of a frontal matrix is ever read: the dense
    Cholesky references the lower triangle of the pivot block, the
    rectangle below it is lower by position, and the ascending relative
    indices of extend-add carry a child's lower triangle onto the
    parent's.  So A's entries are scattered into the lower triangle only
    and nothing is symmetrised; what the upper triangle holds is never
    looked at.
    """
    a = sym.a_perm
    stree = sym.stree
    supernodes, children = stree.supernodes, stree.children
    # Local column of every stored entry of A inside its supernode's front
    # (the local row is one searchsorted per supernode, below).
    a_local_col = segment_ids(a.indptr)
    a_local_col -= stree.col_lo[sym.partition.column_to_supernode()][a_local_col]

    blocks: list[np.ndarray] = [None] * stree.nsuper  # type: ignore[list-item]
    # pending[s] = the (n-t) x (n-t) Schur complement of s, until its parent consumes it
    pending: dict[int, np.ndarray] = {}

    for s in stree.topo_order():
        sn = supernodes[s]
        n_s, t_s, rows = sn.n, sn.t, sn.rows
        front = np.zeros((n_s, n_s))

        # Assemble original-matrix columns (lower triangle only).
        # ``+ 0.0`` stores a -0.0 of A as the +0.0 that accumulating into
        # the zeroed front would leave.
        lo, hi = a.indptr.item(sn.col_lo), a.indptr.item(sn.col_hi)
        a_local_row = rows.searchsorted(a.indices[lo:hi])
        front[a_local_row, a_local_col[lo:hi]] = a.data[lo:hi] + 0.0

        # Extend-add children's update matrices, in ascending child order.
        for c in children[s]:
            idx = rows.searchsorted(supernodes[c].below)
            front[idx[:, None], idx] += pending.pop(c)

        # Factor the leading t columns of the frontal matrix.
        try:
            diag = dense_cholesky(front[:t_s, :t_s])
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"supernode {s} (columns [{sn.col_lo}, {sn.col_hi}) of the permuted "
                f"matrix) is not positive definite: {exc}"
            ) from exc
        block = np.empty((n_s, t_s))
        block[:t_s] = diag
        if n_s > t_s:
            below = _solve_below(diag, front[t_s:, :t_s].T).T
            block[t_s:] = below
            # Schur complement for the parent.
            pending[s] = front[t_s:, t_s:] - below @ below.T
        blocks[s] = block

    if pending:
        raise AssertionError("unconsumed update matrices — broken assembly tree")
    return SupernodalFactor(stree=stree, blocks=blocks)
