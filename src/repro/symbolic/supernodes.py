"""Supernode detection.

A (fundamental) supernode is a maximal run of consecutive columns
``i_1 .. i_t`` of L such that each ``i_{j+1}`` is the parent of ``i_j`` in
the elimination tree and all t columns have identical below-diagonal
pattern (paper Section 2.1).  Equivalently, on a postordered tree:
``parent(j) == j + 1``, node ``j+1`` has exactly one child, and
``count(j) == count(j+1) + 1``.

The optional *relaxation* (amalgamation) fattens tiny supernodes so the
dense kernels and the level schedule get fewer, wider blocks.  On a chain
``parent(j-1) == j`` the pattern of column ``j-1`` below ``j`` is a subset
of column ``j``'s, so letting ``j`` join costs each earlier column of the
supernode ``count(j) - count(j-1) + 1`` artificial zeros.  The first
column carries the sum over every merge after it, so the supernode grows
column by column only while that sum stays at most ``relax``: no column
holds more than ``relax`` artificial zeros.  ``relax=0`` gives the
fundamental supernodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.etree import _chain_links
from repro.util.validation import require


@dataclass(frozen=True)
class SupernodePartition:
    """Partition of columns 0..n-1 into supernodes of consecutive columns.

    ``boundaries`` has length nsuper+1 with ``boundaries[0] == 0`` and
    ``boundaries[-1] == n``; supernode s owns columns
    ``boundaries[s] : boundaries[s+1]``.
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=np.int64)
        object.__setattr__(self, "boundaries", b)
        require(b.ndim == 1 and b.shape[0] >= 1, "boundaries must be non-empty 1-D")
        require(b[0] == 0, "boundaries must start at 0")
        require(bool(np.all(np.diff(b) > 0)), "boundaries must be strictly increasing")

    @property
    def nsuper(self) -> int:
        return int(self.boundaries.shape[0] - 1)

    @property
    def n(self) -> int:
        return int(self.boundaries[-1])

    def columns(self, s: int) -> tuple[int, int]:
        """Half-open column range of supernode *s*."""
        return int(self.boundaries[s]), int(self.boundaries[s + 1])

    def width(self, s: int) -> int:
        lo, hi = self.columns(s)
        return hi - lo

    def column_to_supernode(self) -> np.ndarray:
        """Array mapping each column to its supernode index."""
        return np.repeat(np.arange(self.nsuper), np.diff(self.boundaries))


def find_supernodes(
    parent: np.ndarray,
    col_counts: np.ndarray,
    *,
    relax: int = 0,
) -> SupernodePartition:
    """Fundamental supernodes, optionally relaxed by amalgamation.

    Each column of a relaxed supernode holds at most *relax* artificial
    zeros (module docstring).  *parent* must be a postordered elimination
    tree (children < parent and subtrees contiguous); *col_counts* is nnz
    per column of L including the diagonal.
    """
    n = parent.shape[0]
    require(col_counts.shape[0] == n, "col_counts must match parent length")
    require(relax >= 0, f"relax must be >= 0, got {relax}")
    # Column j joins column j - 1 when it continues that column's chain
    # and (fundamental) the two patterns agree below j.
    chain = _chain_links(parent)
    slack = col_counts[:-1] - col_counts[1:] - 1
    if relax == 0:
        merge = chain & (slack == 0)
    else:
        # Relaxed: -slack artificial zeros per earlier column, summed over
        # the supernode's merges so far.
        extra = (-slack).tolist()
        joins = [False] * (n - 1)
        zeros = 0
        for k in np.flatnonzero(chain).tolist():
            zeros = (zeros if k and joins[k - 1] else 0) + extra[k]
            joins[k] = zeros <= relax
        merge = np.array(joins, dtype=bool)
    starts = np.flatnonzero(~merge) + 1
    return SupernodePartition(np.concatenate([[0], starts, [n]]).astype(np.int64))
