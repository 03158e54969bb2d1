"""Block-cyclic layouts of a supernode's dense trapezoid.

* 1-D row-wise (forward solve) / column-wise (backward solve, which for our
  ``n x t`` storage orientation is the same row partition of the storage —
  the paper's "column-wise partitioning of the t x n trapezoid").
* 2-D over a sqrt(q) x sqrt(q) logical grid (the factorization layout that
  Section 4's redistribution converts away from).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.subtree_subcube import ProcSet
from repro.util.blocks import block_count, block_range
from repro.util.validation import check_positive, is_power_of_two, require


@dataclass(frozen=True)
class BlockCyclic1D:
    """1-D block-cyclic partition of ``n`` items over a :class:`ProcSet`."""

    n: int
    b: int
    procs: ProcSet

    def __post_init__(self) -> None:
        check_positive(self.n, "n")
        check_positive(self.b, "b")

    @property
    def nblocks(self) -> int:
        return block_count(self.n, self.b)

    def owner_of_block(self, k: int) -> int:
        require(0 <= k < self.nblocks, f"block {k} out of range")
        return self.procs.start + k % self.procs.size

    def owner_of_item(self, i: int) -> int:
        return self.owner_of_block(i // self.b)

    def block_bounds(self, k: int) -> tuple[int, int]:
        return block_range(k, self.b, self.n)

    def blocks_of(self, rank: int) -> list[int]:
        require(rank in self.procs, f"rank {rank} not in {self.procs}")
        local = rank - self.procs.start
        return list(range(local, self.nblocks, self.procs.size))

    def items_of(self, rank: int) -> list[int]:
        out: list[int] = []
        for k in self.blocks_of(rank):
            lo, hi = self.block_bounds(k)
            out.extend(range(lo, hi))
        return out


@dataclass(frozen=True)
class BlockCyclic2D:
    """2-D block-cyclic partition of an ``n x t`` trapezoid over a proc grid.

    The processor set (size q, a power of two) is factored into the
    near-square grid ``qr x qc`` with ``qr >= qc`` — for odd log2(q) the
    grid is ``2qc x qc`` as in the paper's factorization code.
    """

    n: int
    t: int
    b: int
    procs: ProcSet

    def __post_init__(self) -> None:
        check_positive(self.n, "n")
        check_positive(self.t, "t")
        check_positive(self.b, "b")

    @property
    def grid(self) -> tuple[int, int]:
        q = self.procs.size
        qc = 1
        while (qc * 2) * (qc * 2) <= q:
            qc *= 2
        qr = q // qc
        require(qr * qc == q and is_power_of_two(qr), "bad grid factorisation")
        return qr, qc

    @property
    def nrow_blocks(self) -> int:
        return block_count(self.n, self.b)

    @property
    def ncol_blocks(self) -> int:
        return block_count(self.t, self.b)

    def owner_of_block(self, i: int, j: int) -> int:
        require(0 <= i < self.nrow_blocks, f"row block {i} out of range")
        require(0 <= j < self.ncol_blocks, f"col block {j} out of range")
        qr, qc = self.grid
        return self.procs.start + (i % qr) * qc + (j % qc)

    def owner_of_item(self, i: int, j: int) -> int:
        return self.owner_of_block(i // self.b, j // self.b)
