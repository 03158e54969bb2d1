"""Compressed adjacency structure of a symmetric sparse matrix's graph."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csc import SymCSC
from repro.util.segments import ptr_from_counts, segment_ids
from repro.util.validation import check_index


@dataclass(frozen=True)
class Adjacency:
    """Undirected graph in CSR-ish compressed form (no self loops).

    ``neighbors(v)`` is ``indices[indptr[v]:indptr[v+1]]``.  ``coords`` is
    carried through from the originating matrix when available, enabling
    geometric separators.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    coords: np.ndarray | None = field(default=None, compare=False)

    def neighbors(self, v: int) -> np.ndarray:
        check_index(v, self.n, "vertex")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        check_index(v, self.n, "vertex")
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def nedges(self) -> int:
        return int(self.indptr[-1]) // 2

    def subgraph(self, vertices: np.ndarray) -> tuple["Adjacency", np.ndarray]:
        """Induced subgraph on *vertices*.

        Returns the subgraph (with vertices renumbered 0..len-1 in the order
        given) and the mapping ``local -> global`` (a copy of *vertices*).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.shape[0]
        local = -np.ones(self.n, dtype=np.int64)
        local[vertices] = np.arange(k)
        # Gather every listed vertex's neighbour run in one take: position
        # p of the flat gather belongs to the owner[p]-th listed vertex.
        starts = self.indptr[vertices]
        lengths = self.indptr[vertices + 1] - starts
        owner = np.repeat(np.arange(k), lengths)
        flat = np.arange(owner.shape[0]) + (starts - ptr_from_counts(lengths)[:-1])[owner]
        nb = local[self.indices[flat]]
        keep = nb >= 0
        sub_ptr = ptr_from_counts(np.bincount(owner[keep], minlength=k))
        coords = self.coords[vertices] if self.coords is not None else None
        return Adjacency(k, sub_ptr, nb[keep], coords), vertices.copy()


def adjacency_from_matrix(a: SymCSC) -> Adjacency:
    """Adjacency of the full symmetric pattern of *a*, self-loops removed."""
    indptr, indices = a.pattern_full()
    column = segment_ids(indptr)
    mask = indices != column
    new_ptr = ptr_from_counts(np.bincount(column[mask], minlength=a.n))
    return Adjacency(a.n, new_ptr, indices[mask], a.coords)
