"""Tree utilities: children lists, postorder, levels.

Postordering the elimination tree is what makes the columns of each
supernode (and of each subtree) contiguous, which both the supernode
detector and the subtree-to-subcube mapping require.  A postorder is itself
an equivalent reordering of the matrix (it preserves the fill pattern up to
renumbering), so the driver composes it with the fill-reducing permutation.
"""

from __future__ import annotations

import numpy as np

from repro.ordering.permutation import Permutation
from repro.symbolic.etree import NO_PARENT, is_valid_etree
from repro.util.segments import ptr_from_counts


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """Children of each node, each list sorted ascending."""
    kids = np.flatnonzero(parent != NO_PARENT)
    of = parent[kids]
    ptr = ptr_from_counts(np.bincount(of, minlength=parent.shape[0])).tolist()
    grouped = kids[np.argsort(of, kind="stable")].tolist()
    return [grouped[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]


def postorder(parent: np.ndarray) -> Permutation:
    """A postorder permutation (new <- old) of the forest.

    Children are visited in ascending order, iteratively (no recursion, so
    path-shaped trees of 10^5 nodes are fine).
    """
    n = parent.shape[0]
    kids = children_lists(parent)
    roots = np.flatnonzero(parent == NO_PARENT).tolist()
    out: list[int] = []
    for root in roots:
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            node, child_idx = stack.pop()
            if child_idx < len(kids[node]):
                stack.append((node, child_idx + 1))
                stack.append((kids[node][child_idx], 0))
            else:
                out.append(node)
    if len(out) != n:
        raise ValueError("parent array does not describe a forest")
    return Permutation(np.asarray(out, dtype=np.int64))


def relabel_tree(parent: np.ndarray, perm: Permutation) -> np.ndarray:
    """Parent array after renumbering nodes with *perm* (new <- old)."""
    inv = perm.inverse().perm
    out = np.full(parent.shape[0], NO_PARENT, dtype=np.int64)
    has_parent = parent != NO_PARENT
    out[inv[has_parent]] = inv[parent[has_parent]]
    return out


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Depth of each node (roots at level 0).

    Matches the paper's Figure 1 convention: the topmost (root) supernode is
    level 0 and levels grow downwards.
    """
    parent = np.asarray(parent, dtype=np.int64)
    if not is_valid_etree(parent):
        raise ValueError("parent array must satisfy parent[j] > j")
    # Pointer jumping: ``level[j]`` counts the edges from j up to ``hop[j]``
    # and every round doubles the hop, so ceil(log2(height)) rounds suffice.
    level = (parent != NO_PARENT).astype(np.int64)
    hop = parent.copy()
    live = np.flatnonzero(hop != NO_PARENT)
    while live.size:
        via = hop[live]
        level[live] += level[via]
        hop[live] = hop[via]
        live = live[hop[live] != NO_PARENT]
    return level


def levels_deepest_first(level: np.ndarray):
    """Yield the non-root nodes of a forest one depth at a time, deepest first.

    *level* is :func:`tree_levels` of the forest.

    Every node of one depth has its parent at the depth above, so a
    bottom-up recurrence can fold a whole depth into the parents with one
    array operation.
    """
    by_level = np.argsort(level, kind="stable")
    ptr = np.searchsorted(level[by_level], np.arange(int(level.max(initial=0)) + 2))
    for d in range(ptr.shape[0] - 2, 0, -1):
        yield by_level[ptr[d] : ptr[d + 1]]


def subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Number of nodes in the subtree rooted at each node (incl. itself)."""
    size = np.ones(parent.shape[0], dtype=np.int64)
    for nodes in levels_deepest_first(tree_levels(parent)):
        np.add.at(size, parent[nodes], size[nodes])
    return size
