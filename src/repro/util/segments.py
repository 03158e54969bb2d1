"""Segment arithmetic on compressed (``ptr`` / flat) array pairs.

The set-up stages keep every ragged structure — CSC columns, adjacency
lists, supernode row lists — as one flat array plus a pointer array, and
work on all segments at once; these helpers are the vocabulary.
"""

from __future__ import annotations

import numpy as np


def ptr_from_counts(counts: np.ndarray) -> np.ndarray:
    """Pointer array of segments with the given lengths: ``[0, c0, c0 + c1, ...]``."""
    ptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def segment_ids(ptr: np.ndarray) -> np.ndarray:
    """Owning segment of every flat position: ``k`` repeated ``ptr[k+1] - ptr[k]`` times.

    For CSC arrays this is the column of every stored entry; for an
    adjacency structure the source vertex of every edge slot.
    """
    return np.repeat(np.arange(ptr.shape[0] - 1), np.diff(ptr))


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the positions where a new run of equal *keys* begins."""
    head = np.ones(keys.shape[0], dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return head
