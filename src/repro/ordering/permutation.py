"""Explicit permutation objects.

Conventions matter more than code here.  Throughout the library a
permutation is stored in **"new <- old"** form: ``perm[k]`` is the original
index of the variable that becomes index ``k`` after reordering.  With this
convention ``A.permuted(perm)`` computes ``P A P^T`` and
``x_original = scatter(x_permuted)`` is ``x_orig[perm] = x_perm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``range(n)`` stored as ``perm[new] = old``."""

    perm: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", p)
        require(p.ndim == 1, "permutation must be 1-D")
        if p.size and not np.array_equal(np.sort(p), np.arange(p.shape[0])):
            raise ValueError("not a permutation of range(n)")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.perm.shape[0])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.n)
        return Permutation(inv)

    def apply_to_vector(self, x: np.ndarray) -> np.ndarray:
        """Return x reordered into the new numbering (``out[new] = x[old]``)."""
        return np.asarray(x)[self.perm]

    def unapply_to_vector(self, x: np.ndarray) -> np.ndarray:
        """Undo :meth:`apply_to_vector` (``out[old] = x[new]``)."""
        out = np.empty_like(np.asarray(x))
        out[self.perm] = x
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.perm, other.perm)
