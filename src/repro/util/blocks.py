"""Block-cyclic index arithmetic.

The pipelined triangular solvers partition the rows (forward) or columns
(backward) of each trapezoidal supernode among ``q`` processors in a
block-cyclic fashion with block size ``b`` (paper Section 2, Figure 3).
These helpers centralise the index algebra: the block count and
block -> half-open global range.
"""

from __future__ import annotations

from repro.util.validation import check_positive


def block_count(n: int, b: int) -> int:
    """Number of blocks covering ``n`` items with block size ``b`` (last may be short)."""
    check_positive(b, "block size b")
    return -(-n // b)


def block_range(block: int, b: int, n: int) -> tuple[int, int]:
    """Half-open global index range ``[lo, hi)`` of *block* within ``n`` items."""
    lo = block * b
    hi = min(lo + b, n)
    if lo >= n:
        raise IndexError(f"block {block} starts at {lo} >= n={n}")
    return lo, hi
