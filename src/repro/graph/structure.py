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


def adjacency_from_matrix(a: SymCSC) -> Adjacency:
    """Adjacency of the full symmetric pattern of *a*, self-loops removed."""
    indptr, indices = a.pattern_full()
    column = segment_ids(indptr)
    mask = indices != column
    new_ptr = ptr_from_counts(np.bincount(column[mask], minlength=a.n))
    return Adjacency(a.n, new_ptr, indices[mask], a.coords)
