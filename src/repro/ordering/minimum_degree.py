"""Minimum-degree ordering.

A straightforward exterior-degree implementation over an explicit
elimination graph: repeatedly eliminate a vertex of minimum current degree
and turn its neighbourhood into a clique.  No supervariable detection or
multiple elimination — the quadratic worst case is acceptable because the
nested-dissection driver only calls this on small leaf subgraphs, and the
standalone use is as an ablation baseline on moderate matrices.
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
    n = g.n
    adj: list[set[int]] = [set(map(int, g.neighbors(v))) for v in range(n)]
    eliminated = np.zeros(n, dtype=bool)
    heap: list[tuple[int, int]] = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)

    for k in range(n):
        # Pop until we find a live entry whose recorded degree is current.
        while True:
            deg, v = heapq.heappop(heap)
            if not eliminated[v] and deg == len(adj[v]):
                break
        order[k] = v
        eliminated[v] = True
        nb = adj[v]
        # Clique the neighbourhood (this is where fill is modeled).
        for u in nb:
            adj[u].discard(v)
        nb_list = sorted(nb)
        for i, u in enumerate(nb_list):
            for w in nb_list[i + 1 :]:
                if w not in adj[u]:
                    adj[u].add(w)
                    adj[w].add(u)
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return Permutation(order)
