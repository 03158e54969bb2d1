"""Fill pattern of the Cholesky factor L.

Uses the column-structure recurrence (George & Liu; Li & Liu's survey in
PAPERS.md): the below-diagonal structure of column j of L is the
below-diagonal structure of column j of A united with the structures of
j's elimination-tree children, each without its first entry (which is j
itself).

The recurrence runs over the etree's *chains*: maximal runs of columns
``c0 .. c1`` in which every column after the first is its predecessor's
parent and has no other child (the test supernode detection makes too).
Along a chain it unrolls: ``struct(j)`` is every row ``> j`` of A's columns
``c0 .. j`` and of what ``c0``'s children hand up, so a row ``r`` first met
at column ``l`` sits in columns ``l .. min(r - 1, c1)``.  One round takes
every chain at one depth of the chain tree: a single sort of
``row * n + column`` keys finds each (chain, row)'s first column, and the
rows above ``c1``, but for the parent itself, go up to the parent chain's
first column.  Every nested-dissection separator is one chain, so the
rounds number the levels of the relaxed supernodal tree (14 on
grid3d(16)), not of the column etree (594).

A second pass expands each round's (first column, row) pairs over their
columns and sorts the result in place.  A column lives in one round, so
each round's sorted run fills its own slots of L's CSC arrays: nothing of
nnz(L) size is sorted whole or held twice.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import SymCSC
from repro.symbolic.etree import NO_PARENT, _chain_links
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
    links = _chain_links(parent)
    head = np.ones(n, dtype=bool)
    head[1:] = ~links
    tail = np.ones(n, dtype=bool)
    tail[:-1] = ~links
    chain_of = np.cumsum(head) - 1
    ends = np.flatnonzero(tail)
    # Per column: the first and the last column of its chain.
    first_col = np.flatnonzero(head)[chain_of]
    last_col = ends[chain_of]
    # A chain hands up to its parent chain's first column.
    up = parent[ends]
    chain_depth = tree_levels(np.where(up == NO_PARENT, NO_PARENT, chain_of[up]))
    depth = chain_depth[chain_of]
    nrounds = int(depth.max()) + 1 if n else 0

    # Strictly-lower entries of A as ``row * n + column`` keys, grouped by
    # the depth of their column's chain.
    column = segment_ids(a.indptr)
    strict = a.indices > column
    a_depth = depth[column[strict]]
    by_depth = np.argsort(a_depth, kind="stable")
    a_keys = (a.indices[strict] * n + column[strict])[by_depth]
    a_ptr = ptr_from_counts(np.bincount(a_depth, minlength=nrounds))

    # Deepest round first: ``carry`` holds what the round below hands up,
    # already keyed to the parent chain's first column.
    rounds = []
    carry = np.empty(0, dtype=np.int64)
    for d in range(nrounds - 1, -1, -1):
        first, row, carry = _chain_round(
            np.concatenate([carry, a_keys[a_ptr[d] : a_ptr[d + 1]]]),
            n, first_col, last_col, parent)
        # The pair covers columns ``first .. end - 1``.
        rounds.append((d, first, row, np.minimum(row, last_col[first] + 1)))

    # Below-diagonal count per column: +1 where a pair starts, -1 past its end.
    count = np.zeros(n + 1, dtype=np.int64)
    for _, first, _, end in rounds:
        count += np.bincount(first, minlength=n + 1)
        count -= np.bincount(end, minlength=n + 1)
    count = np.cumsum(count[:n])
    indptr = ptr_from_counts(count + 1)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    indices[indptr[:-1]] = np.arange(n)  # diagonal leads each column

    by_round = np.argsort(depth, kind="stable")
    round_ptr = ptr_from_counts(np.bincount(depth, minlength=nrounds))
    for d, first, row, end in rounds:
        span = end - first
        ptr = ptr_from_counts(span)
        # ``column * n + row`` of every entry the round covers.
        keys = np.repeat(first - ptr[:-1], span)
        keys += np.arange(keys.shape[0])
        keys *= n
        keys += np.repeat(row, span)
        keys.sort()
        np.remainder(keys, n, out=keys)
        # The round's columns ascend through the sorted keys, each one
        # run of ``count`` rows that goes right behind its diagonal.
        cols = by_round[round_ptr[d] : round_ptr[d + 1]]
        runs = count[cols]
        slot = np.repeat(indptr[cols] + 1 - ptr_from_counts(runs)[:-1], runs)
        slot += np.arange(slot.shape[0])
        indices[slot] = keys
    return indptr, indices


def _chain_round(
    keys: np.ndarray,
    n: int,
    first_col: np.ndarray,
    last_col: np.ndarray,
    parent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round over the ``row * n + column`` *keys* of its chains' entries.

    Returns the first column and the row of every (chain, row) pair, rows
    ascending, and the keys the round hands up to the parent chains.
    """
    keys.sort()
    row, col = np.divmod(keys, n)
    # Within one row the columns ascend, so the chains do too: the first
    # key of each (row, chain) run holds the smallest column.
    head = run_starts(keys - col + first_col[col])
    row, first = row[head], col[head]
    last = last_col[first]
    up = np.flatnonzero(row > last)
    to = parent[last[up]]
    keep = row[up] != to
    return first, row, row[up[keep]] * n + to[keep]
