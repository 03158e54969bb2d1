"""Minimum-degree ordering.

A straightforward exterior-degree implementation over an explicit
elimination graph: repeatedly eliminate a vertex of minimum current degree
and turn its neighbourhood into a clique.  No supervariable detection or
multiple elimination — the quadratic worst case is acceptable because the
nested-dissection driver only calls this on small leaf and separator
subgraphs, and the standalone use is as an ablation baseline on moderate
matrices.

The kernel, :func:`_eliminate`, works on plain Python sets: nested
dissection hands it every leaf and separator of one graph from a single
induced-subgraph pass, and :func:`minimum_degree` hands it the whole graph.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.structure import Adjacency
from repro.ordering.permutation import Permutation


def minimum_degree(g: Adjacency) -> Permutation:
    """Return a minimum-degree permutation (new <- old) of the graph.

    Ties go to the lowest vertex number, so the order is deterministic.
    """
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    adj = [set(nbr[ptr[v] : ptr[v + 1]]) for v in range(g.n)]
    return Permutation(np.asarray(_eliminate(adj), dtype=np.int64))


def _eliminate(adj: list[set[int]]) -> list[int]:
    """Elimination order of the graph whose neighbour sets are *adj*.

    The heap holds ``(degree, vertex)`` pairs, so the pop order — minimum
    degree, then lowest vertex — depends only on which pairs are in it.
    *adj* is consumed.
    """
    n = len(adj)
    live = [True] * n
    heap = [(len(nb), v) for v, nb in enumerate(adj)]
    heapq.heapify(heap)
    order = []
    for _ in range(n):
        # Pop until we find a live entry whose recorded degree is current.
        while True:
            deg, v = heapq.heappop(heap)
            if live[v] and deg == len(adj[v]):
                break
        order.append(v)
        live[v] = False
        # Clique the neighbourhood (this is where fill is modeled).  Each
        # pair is looked at once; a neighbour already joined to all the
        # later ones (the common case once fill is dense) costs one
        # ``issuperset``.
        nb = list(adj[v])
        for i, u in enumerate(nb):
            row = adj[u]
            row.discard(v)
            later = nb[i + 1 :]
            if not row.issuperset(later):
                for w in later:
                    if w not in row:
                        row.add(w)
                        adj[w].add(u)
        for u in nb:
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return order
