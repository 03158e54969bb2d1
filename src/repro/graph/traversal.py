"""Breadth-first traversal primitives.

Used by the level-set separator (nested dissection fallback for graphs
without coordinates), reverse Cuthill-McKee, and connectivity checks.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components as _csgraph_components

from repro.graph.structure import Adjacency
from repro.util.validation import check_index


def bfs_levels(g: Adjacency, root: int) -> np.ndarray:
    """BFS level of every vertex from *root*; unreachable vertices get -1."""
    check_index(root, g.n, "root")
    level = -np.ones(g.n, dtype=np.int64)
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        nxt = []
        for v in frontier:
            nb = g.neighbors(int(v))
            fresh = nb[level[nb] < 0]
            level[fresh] = depth
            nxt.append(fresh)
        frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, dtype=np.int64)
        # np.unique also removes duplicates introduced by two frontier
        # vertices discovering the same neighbour in one sweep.
        frontier = frontier[level[frontier] == depth]
    return level


def pseudo_peripheral(g: Adjacency, start: int = 0) -> int:
    """Find a vertex of (near-)maximal eccentricity by repeated BFS.

    The classic George-Liu heuristic: BFS from *start*, move to a
    minimum-degree vertex of the last level, repeat until the eccentricity
    stops growing (at most 8 sweeps).  Such a vertex seeds long, thin
    level structures, which makes level-set separators small.
    """
    check_index(start, g.n, "start")
    v = start
    ecc = -1
    for _ in range(8):
        level = bfs_levels(g, v)
        reach = level >= 0
        new_ecc = int(level[reach].max())
        if new_ecc <= ecc:
            return v
        ecc = new_ecc
        last = np.flatnonzero(level == new_ecc)
        degrees = np.array([g.degree(int(u)) for u in last])
        v = int(last[int(np.argmin(degrees))])
    return v


def connected_components(g: Adjacency) -> np.ndarray:
    """Component label (0-based, dense) for every vertex.

    Components are numbered in order of their lowest vertex.  One
    linear-time labelling of the whole graph (scipy's ``csgraph``),
    renumbered into that order.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    pattern = csr_array((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    _, label = _csgraph_components(pattern, directed=False)
    _, first = np.unique(label, return_index=True)  # each label's lowest vertex
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[label]
