"""Elimination tree computation (Liu 1990, ref [13] of the paper).

The elimination tree of an SPD matrix A has ``parent(j) = min { i > j :
L[i, j] != 0 }``.  Liu's algorithm computes it from the lower-triangular
pattern of A alone in near-linear time using path compression through
"virtual ancestors".
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import SymCSC
from repro.util.segments import segment_ids

NO_PARENT = -1


def elimination_tree(a: SymCSC) -> np.ndarray:
    """Parent array of the elimination tree; roots have parent -1.

    Works column by column over the *upper* triangle — equivalently, for
    each column j it processes the rows i < j with A[j, i] != 0, which in
    our lower-triangle CSC storage are the columns i whose row list
    contains j.  To stay O(nnz * inverse-ackermann) we iterate the lower
    triangle rows directly: for column j of A (rows i >= j), entry (i, j)
    says "row i has a nonzero in column j", which is exactly what the
    classic algorithm consumes when it reaches column i.
    """
    # For each row i, the columns j < i with A[i, j] != 0, ascending: the
    # strictly-lower entries in a stable sort by row (CSC order is already
    # column-ascending).
    column = segment_ids(a.indptr)
    strict = a.indices > column
    rows, cols = a.indices[strict], column[strict]
    by_row = np.argsort(rows, kind="stable")
    parent = [NO_PARENT] * a.n
    ancestor = [NO_PARENT] * a.n
    # The union-find sweep is sequential by nature (every step reads the
    # compression the previous one wrote), so it runs over plain lists.
    for i, j in zip(rows[by_row].tolist(), cols[by_row].tolist()):
        # Walk from j to the root of its current virtual tree,
        # compressing paths, and attach the root under i.
        k = j
        while ancestor[k] != NO_PARENT and ancestor[k] != i:
            nxt = ancestor[k]
            ancestor[k] = i
            k = nxt
        if ancestor[k] == NO_PARENT:
            ancestor[k] = i
            parent[k] = i
    return np.asarray(parent, dtype=np.int64)


def is_valid_etree(parent: np.ndarray) -> bool:
    """True iff every ``parent[j]`` is -1 or in ``(j, n)`` — which also rules out cycles."""
    n = parent.shape[0]
    return bool(np.all((parent == NO_PARENT) | ((parent > np.arange(n)) & (parent < n))))


def _chain_links(parent: np.ndarray) -> np.ndarray:
    """``links[j - 1]`` is True iff column j continues column j - 1's chain:
    j is that column's parent and has no other child.

    A chain is a maximal run of such columns.  The pattern rounds unroll
    the column-structure recurrence along each chain, and a (relaxed)
    supernode is a run of one chain, so both ask this one question.
    """
    n = parent.shape[0]
    nchildren = np.bincount(parent[parent != NO_PARENT], minlength=n)
    return (parent[:-1] == np.arange(1, n)) & (nchildren[1:] == 1)
