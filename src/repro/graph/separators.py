"""Vertex separators for nested dissection.

:func:`levelset_separator` is the algebraic separator for graphs without
coordinates: a median BFS level from a pseudo-peripheral vertex separates
the graph (George-Liu).  It returns a :class:`Separation` = (left,
separator, right) partition with no edge between *left* and *right* — the
invariant the symbolic phase's balanced elimination trees depend on, and
which the property tests check.

Meshes with vertex coordinates (the paper's 2-D/3-D neighbourhood graphs)
are cut geometrically instead — perpendicular to the widest axis at the
median, with the boundary vertices of one side as the separator, the
O(sqrt N) separators the paper's analysis assumes.  Nested dissection
makes those cuts for every part of a round at once
(:mod:`repro.ordering.nested_dissection`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.structure import Adjacency
from repro.graph.traversal import bfs_levels, pseudo_peripheral


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


def levelset_separator(g: Adjacency) -> Separation:
    """George-Liu level-structure separator from a pseudo-peripheral vertex."""
    root = pseudo_peripheral(g)
    level = bfs_levels(g, root)
    reach = level >= 0
    if not bool(reach.all()):
        # Disconnected: the component of the lowest vertex splits off with
        # an empty separator; nested dissection then orders the components
        # one by one.
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
