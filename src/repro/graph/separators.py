"""Vertex separators for nested dissection.

Two strategies:

* :func:`geometric_bisection` — for meshes with vertex coordinates
  (the paper's 2-D/3-D neighbourhood graphs): cut perpendicular to the
  widest coordinate axis at the median, then take the boundary vertices of
  one side as the separator.  For a k x k grid this yields the O(sqrt N)
  separators that the paper's analysis assumes (Lipton-Tarjan class).
* :func:`levelset_separator` — algebraic fallback: a median BFS level from
  a pseudo-peripheral vertex separates the graph (George-Liu).

Both return a :class:`Separation` = (left, separator, right) partition with
no edge between *left* and *right* — the invariant the symbolic phase's
balanced elimination trees depend on, and which the property tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.structure import Adjacency
from repro.graph.traversal import bfs_levels, pseudo_peripheral
from repro.util.segments import segment_ids


@dataclass(frozen=True)
class Separation:
    """A vertex 3-partition (left | separator | right) of a graph."""

    left: np.ndarray
    separator: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        total = self.left.shape[0] + self.separator.shape[0] + self.right.shape[0]
        seen = np.concatenate([self.left, self.separator, self.right])
        if np.unique(seen).shape[0] != total:
            raise ValueError("separation parts must be disjoint")


def _boundary_separator(g: Adjacency, side_mask: np.ndarray) -> Separation:
    """Make the vertices of ``side_mask`` adjacent to the other side the separator."""
    source = segment_ids(g.indptr)
    crossing = side_mask[source] & ~side_mask[g.indices]
    sep_mask = np.zeros(g.n, dtype=bool)
    sep_mask[source[crossing]] = True
    left = np.flatnonzero(side_mask & ~sep_mask)
    right = np.flatnonzero(~side_mask)
    return Separation(left, np.flatnonzero(sep_mask), right)


def geometric_bisection(g: Adjacency) -> Separation:
    """Median cut perpendicular to the widest axis of the vertex coordinates."""
    if g.coords is None:
        raise ValueError("geometric bisection requires vertex coordinates")
    spread = g.coords.max(axis=0) - g.coords.min(axis=0)
    axis = int(np.argmax(spread))
    key = g.coords[:, axis]
    # Jitter-free median split: vertices strictly below the median value of
    # the chosen axis form one side; ties go by vertex number for
    # determinism.
    order = np.lexsort((np.arange(g.n), key))
    half = g.n // 2
    side_mask = np.zeros(g.n, dtype=bool)
    side_mask[order[:half]] = True
    return _boundary_separator(g, side_mask)


def levelset_separator(g: Adjacency) -> Separation:
    """George-Liu level-structure separator from a pseudo-peripheral vertex."""
    root = pseudo_peripheral(g)
    level = bfs_levels(g, root)
    reach = level >= 0
    if not bool(reach.all()):
        # Disconnected: the smaller piece separates trivially with an empty
        # separator; callers recurse into components independently.
        left = np.flatnonzero(reach)
        right = np.flatnonzero(~reach)
        return Separation(left, np.empty(0, dtype=np.int64), right)
    depth = int(level.max())
    if depth == 0:
        return Separation(np.empty(0, dtype=np.int64), np.arange(g.n), np.empty(0, dtype=np.int64))
    # Choose the level whose removal best balances the two sides.
    counts = np.bincount(level, minlength=depth + 1)
    below = np.cumsum(counts)
    best, best_score = 1, None
    for cut in range(1, depth + 1):
        left_sz = int(below[cut - 1])
        sep_sz = int(counts[cut])
        right_sz = g.n - left_sz - sep_sz
        score = (abs(left_sz - right_sz), sep_sz)
        if best_score is None or score < best_score:
            best, best_score = cut, score
    sep = np.flatnonzero(level == best)
    left = np.flatnonzero(level < best)
    right = np.flatnonzero(level > best)
    return Separation(left, sep, right)


def find_separator(g: Adjacency) -> Separation:
    """Dispatch: geometric when coordinates are available, level-set otherwise."""
    if g.coords is not None:
        return geometric_bisection(g)
    return levelset_separator(g)


def is_valid_separation(g: Adjacency, s: Separation) -> bool:
    """True iff no edge joins ``s.left`` and ``s.right`` (testing helper)."""
    in_left = np.zeros(g.n, dtype=bool)
    in_left[s.left] = True
    in_right = np.zeros(g.n, dtype=bool)
    in_right[s.right] = True
    for v in s.left:
        if bool(np.any(in_right[g.neighbors(int(v))])):
            return False
    return True
