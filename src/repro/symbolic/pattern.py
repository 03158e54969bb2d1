"""Fill pattern of the Cholesky factor L.

Uses the column-structure recurrence (George & Liu; Li & Liu's survey in
PAPERS.md): the below-diagonal structure of column j of L is the
below-diagonal structure of column j of A united with the structures of
j's elimination-tree children, each without its first entry (which is j
itself).  All columns at one depth of the tree are independent, so the
union runs one tree level at a time as a single ``np.unique`` over
``column * n + row`` keys.  Every entry of L is sorted once where it is
created and once more in its parent's column: O(nnz(L) log) work in
``height(etree)`` array steps.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import SymCSC
from repro.symbolic.postorder import tree_levels
from repro.util.segments import ptr_from_counts, run_starts, segment_ids


def symbolic_factor_pattern(
    a: SymCSC, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSC pattern (indptr, indices) of L, diagonal first, rows sorted.

    *parent* must be the elimination tree of *a* (in the same ordering).
    """
    n = a.n
    parent = np.asarray(parent, dtype=np.int64)
    depth = tree_levels(parent)
    nlevels = int(depth.max()) + 1 if n else 0

    # Strictly-lower entries of A as keys, grouped by the depth of their column.
    column = segment_ids(a.indptr)
    strict = a.indices > column
    a_depth = depth[column[strict]]
    by_depth = np.argsort(a_depth, kind="stable")
    a_keys = (column[strict] * n + a.indices[strict])[by_depth]
    a_ptr = ptr_from_counts(np.bincount(a_depth, minlength=nlevels))

    # Deepest level first: ``carry`` holds what the level below hands up,
    # already re-keyed to the parent column.
    levels = []
    carry = np.empty(0, dtype=np.int64)
    for d in range(nlevels - 1, -1, -1):
        keys = np.unique(np.concatenate([carry, a_keys[a_ptr[d] : a_ptr[d + 1]]]))
        levels.append(keys)
        col = keys // n
        # The smallest row of a column's structure is its etree parent;
        # everything after it belongs to the parent's structure too.
        rest = np.flatnonzero(~run_starts(col))
        col = col[rest]
        carry = keys[rest] + (parent[col] - col) * n

    # From here on every array is nnz(L) long; each is dropped or reused
    # in place as soon as it has been read, which holds the peak of this
    # function near three such arrays.
    keys = np.concatenate(levels) if levels else carry
    del levels, carry
    col = keys // n
    keys -= col * n  # now the row of every below-diagonal entry
    indptr = ptr_from_counts(np.bincount(col, minlength=n) + 1)
    # A column lives at one depth, so its rows are one sorted run of
    # ``keys``: the k-th of them goes k slots behind the column's diagonal.
    first = np.flatnonzero(run_starts(col))
    shift = indptr[:-1] + 1
    shift[col[first]] -= first
    slot = shift[col]
    del col
    slot += np.arange(slot.shape[0])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    indices[indptr[:-1]] = np.arange(n)  # diagonal leads each column
    indices[slot] = keys
    return indptr, indices


def column_counts(a: SymCSC, parent: np.ndarray) -> np.ndarray:
    """nnz of each column of L (including the diagonal)."""
    indptr, _ = symbolic_factor_pattern(a, parent)
    return np.diff(indptr)
