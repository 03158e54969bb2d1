"""Compressed-sparse-column matrix structures.

Two concrete classes:

* :class:`SymCSC` — a symmetric matrix stored as its **lower triangle**
  (diagonal included) in CSC form.  This is the input to ordering, symbolic
  factorization, and numeric Cholesky.
* :class:`LowerCSC` — a lower-triangular matrix (the Cholesky factor ``L``)
  in CSC form with sorted row indices and the diagonal entry first in every
  column, which is what the simplicial solvers and the supernode extractor
  expect.

Both are immutable after construction; all mutation happens in the builders
(:mod:`repro.sparse.build`) and the factorization routines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.util.segments import segment_ids
from repro.util.validation import check_index, require


def _validate_csc(n: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
    require(indptr.ndim == 1 and indptr.shape[0] == n + 1, "indptr must have length n+1")
    require(indptr[0] == 0, "indptr[0] must be 0")
    require(bool(np.all(np.diff(indptr) >= 0)), "indptr must be non-decreasing")
    nnz = int(indptr[-1])
    require(indices.shape[0] == nnz, f"indices length {indices.shape[0]} != nnz {nnz}")
    require(data.shape[0] == nnz, f"data length {data.shape[0]} != nnz {nnz}")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("row index out of range")


@dataclass(frozen=True)
class SymCSC:
    """Symmetric sparse matrix, lower triangle stored in CSC.

    Attributes
    ----------
    n : int
        Matrix order.
    indptr, indices, data :
        Standard CSC arrays over the lower triangle; within each column the
        row indices are sorted ascending and the first entry of column ``j``
        is the diagonal ``(j, j)``.
    coords : optional ``(n, d)`` float array
        Geometric coordinates of the graph vertices, when the matrix comes
        from a mesh generator.  Used by the geometric nested-dissection
        ordering; ``None`` for purely algebraic matrices.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    coords: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        _validate_csc(self.n, self.indptr, self.indices, self.data)
        for j in range(min(self.n, 1)):  # cheap spot check; full check in builders
            if self.indptr[j] < self.indptr[j + 1]:
                require(int(self.indices[self.indptr[j]]) == j, "diagonal must lead each column")

    # -- basic queries -------------------------------------------------
    @property
    def nnz_lower(self) -> int:
        """Stored nonzeros (lower triangle incl. diagonal)."""
        return int(self.indptr[-1])

    @property
    def nnz(self) -> int:
        """Nonzeros of the full symmetric matrix."""
        return 2 * self.nnz_lower - self.n

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of lower-triangle column *j*."""
        check_index(j, self.n, "column")
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def diagonal(self) -> np.ndarray:
        """Dense vector of diagonal entries."""
        return self.data[self.indptr[:-1]].copy()

    # -- conversions ---------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Full dense symmetric matrix (small matrices / testing only)."""
        out = np.zeros((self.n, self.n))
        column = segment_ids(self.indptr)
        out[self.indices, column] = self.data
        out[column, self.indices] = self.data
        return out

    def to_scipy(self):
        """Full symmetric matrix as ``scipy.sparse.csc_matrix``."""
        from scipy import sparse

        lower = sparse.csc_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n, self.n)
        )
        strict = sparse.tril(lower, k=-1)
        return (lower + strict.T).tocsc()

    @cached_property
    def _full(self):
        """The full symmetric matrix as ``scipy.sparse`` CSR, assembled once.

        Read-only by convention (:func:`repro.sparse.ops.matvec` multiplies
        with it on every checked solve); :meth:`to_scipy` hands out fresh
        copies.  Symmetry makes the CSC arrays a CSR view at no cost.
        """
        return self.to_scipy().T

    def pattern_full(self) -> tuple[np.ndarray, np.ndarray]:
        """CSC (indptr, indices) of the *full* symmetric pattern.

        Orderings and the symbolic phase need the whole adjacency structure,
        not just the lower half.
        """
        from scipy import sparse

        full = self.to_scipy()
        full.sort_indices()
        return full.indptr.astype(np.int64), full.indices.astype(np.int64)

    def permuted(self, perm: np.ndarray) -> "SymCSC":
        """Return ``P A P^T`` where row/col ``perm[k]`` of A becomes k of the result.

        *perm* is given in "new <- old" convention: ``perm[new] = old``.
        """
        from repro.sparse.build import from_triplets

        perm = np.asarray(perm, dtype=np.int64)
        require(perm.shape == (self.n,), "perm must have length n")
        inv = np.empty(self.n, dtype=np.int64)
        inv[perm] = np.arange(self.n)
        column = segment_ids(self.indptr)
        coords = self.coords[perm] if self.coords is not None else None
        return from_triplets(self.n, inv[self.indices], inv[column], self.data, coords=coords)


@dataclass(frozen=True)
class LowerCSC:
    """Lower-triangular sparse matrix in CSC with diagonal-first columns."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        _validate_csc(self.n, self.indptr, self.indices, self.data)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        check_index(j, self.n, "column")
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.indices, segment_ids(self.indptr)] = self.data
        return out

    def to_scipy(self):
        from scipy import sparse

        return sparse.csc_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def transpose_dense(self) -> np.ndarray:
        return self.to_dense().T
