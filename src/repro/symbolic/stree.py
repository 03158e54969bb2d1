"""The supernodal elimination tree (assembly tree).

Each node is a :class:`Supernode`: a dense trapezoidal block of L of width
``t`` (its columns) and height ``n`` (those columns plus every fill row
below them) — exactly the object the paper's Figures 2-4 operate on.  The
tree structure drives both the multifrontal factorization and the
subtree-to-subcube mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.symbolic.etree import NO_PARENT
from repro.symbolic.postorder import children_lists, levels_deepest_first, tree_levels
from repro.symbolic.supernodes import SupernodePartition
from repro.util.segments import ptr_from_counts
from repro.util.validation import require


@dataclass(frozen=True)
class Supernode:
    """One dense trapezoidal supernode.

    Attributes
    ----------
    index : position in the supernodal tree's node list.
    col_lo, col_hi : half-open global column range (width ``t = col_hi - col_lo``).
    rows : global row indices of the trapezoid, length ``n``; the first
        ``t`` entries are exactly ``col_lo .. col_hi - 1`` and the remaining
        ``n - t`` (the "below" part that updates ancestors) are sorted
        ascending and all ``>= col_hi``.
    """

    index: int
    col_lo: int
    col_hi: int
    rows: np.ndarray

    @property
    def t(self) -> int:
        """Supernode width (number of columns)."""
        return self.col_hi - self.col_lo

    @property
    def n(self) -> int:
        """Trapezoid height (columns + below-diagonal rows)."""
        return int(self.rows.shape[0])

    @property
    def below(self) -> np.ndarray:
        """Row indices below the supernode's own columns (length n - t)."""
        return self.rows[self.t :]


@dataclass
class SupernodalTree:
    """Supernodes plus their tree structure and per-node levels.

    ``col_lo`` / ``col_hi`` / ``heights`` are the supernodes' column ranges
    and trapezoid heights as vectors, read off once at construction; every
    structure counter below is arithmetic on them.
    """

    supernodes: list[Supernode]
    parent: np.ndarray
    children: list[list[int]] = field(init=False)
    level: np.ndarray = field(init=False)
    col_lo: np.ndarray = field(init=False, repr=False)
    col_hi: np.ndarray = field(init=False, repr=False)
    heights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ns = len(self.supernodes)
        require(self.parent.shape[0] == ns, "parent array size mismatch")
        shape = np.array(
            [(sn.col_lo, sn.col_hi, sn.rows.shape[0]) for sn in self.supernodes],
            dtype=np.int64,
        ).reshape(ns, 3)
        self.col_lo, self.col_hi, self.heights = shape.T
        empty = np.flatnonzero(self.col_hi <= self.col_lo)
        if empty.size:
            # No executor or compiler carries a lane for an empty panel.
            sn = self.supernodes[int(empty[0])]
            raise ValueError(f"supernode {sn.index} has no columns "
                             f"(col_lo={sn.col_lo}, col_hi={sn.col_hi})")
        kids = np.flatnonzero(self.parent != NO_PARENT)
        require(bool(np.all(self.parent[kids] > kids)),
                "supernodal tree parents must have higher indices")
        self.children = children_lists(self.parent)
        # Levels follow the paper's Figure 1: roots at level 0.
        self.level = tree_levels(self.parent)

    @property
    def nsuper(self) -> int:
        return len(self.supernodes)

    @property
    def widths(self) -> np.ndarray:
        """Supernode widths ``t`` as a vector."""
        return self.col_hi - self.col_lo

    # Cached counters: read on every solve, and the tree is immutable once built.
    @cached_property
    def n(self) -> int:
        return int(self.col_hi.max()) if self.nsuper else 0

    def roots(self) -> list[int]:
        return np.flatnonzero(self.parent == NO_PARENT).tolist()

    def bottom_up_levels(self) -> np.ndarray:
        """Per-supernode level counted from the leaves (leaves at 0).

        ``bottom_up_levels()[s] = 1 + max(levels of children)`` — the earliest
        parallel step at which supernode ``s`` can run in a level-scheduled
        forward elimination, and (reversed) the dependency depth of the
        backward substitution.  Complements :attr:`level`, which counts from
        the roots (paper Figure 1).
        """
        out = np.zeros(self.nsuper, dtype=np.int64)
        for nodes in levels_deepest_first(self.level):
            np.maximum.at(out, self.parent[nodes], out[nodes] + 1)
        return out

    def topo_order(self) -> range:
        """Bottom-up order: node indices ascend from leaves to roots.

        Column-contiguous supernodes over a postordered etree are already
        topologically sorted by construction (children precede parents).
        """
        return range(self.nsuper)

    def factor_nnz(self) -> int:
        """Nonzeros of L counted through the trapezoids."""
        t, n = self.widths, self.heights
        return int((t * (t + 1) // 2 + (n - t) * t).sum())

    @cached_property
    def _solve_flops_per_rhs(self) -> int:
        from repro.util.flops import gemm_flops, trsm_flops

        t, n = self.widths, self.heights
        return int((trsm_flops(t) + gemm_flops(n - t, t)).sum())

    def solve_flops(self, nrhs: int = 1) -> int:
        """Flops of one forward (or backward) triangular solve (linear in ``nrhs``)."""
        return nrhs * self._solve_flops_per_rhs

    @cached_property
    def _factor_flops(self) -> int:
        t, n = self.widths, self.heights
        # Dense t x t Cholesky + triangular solve for the below block
        # + symmetric rank-t update of the (n-t) x (n-t) frontal part.
        return int((t**3 // 3 + (n - t) * t * t + (n - t) ** 2 * t).sum())

    def factor_flops(self) -> int:
        """Flops of the supernodal Cholesky factorization."""
        return self._factor_flops


class SupernodeChainError(ValueError):
    """A supernode's columns are not one etree chain, so its last column
    does not hold its rows."""


def build_supernodal_tree(
    l_indptr: np.ndarray,
    l_indices: np.ndarray,
    partition: SupernodePartition,
) -> SupernodalTree:
    """Assemble the supernodal tree from the factor pattern and a partition.

    The rows of a supernode are the union of its columns' patterns
    restricted to rows ``>= col_hi``.  When every column but the last has
    the next column as its etree parent, column ``j``'s pattern below
    ``j + 1`` lies inside column ``j + 1``'s, so that union is the last
    column's pattern: the rows come out of L with one gather, and no entry
    of L is sorted.  Fundamental and relaxed supernodes are such chains;
    a partition with a column whose first below-diagonal row is not the
    next column raises :class:`SupernodeChainError`.  The tree parent of a
    supernode is the supernode owning its smallest below-row.
    """
    n, ns = partition.n, partition.nsuper
    bounds = partition.boundaries
    col_to_sn = partition.column_to_supernode()
    inner = np.flatnonzero(col_to_sn[:-1] == col_to_sn[1:])
    chained = ((l_indptr[inner + 1] - l_indptr[inner] > 1)
               & (l_indices[l_indptr[inner] + 1] == inner + 1))
    if not chained.all():
        j = int(inner[np.argmin(chained)])
        raise SupernodeChainError(
            f"supernode {int(col_to_sn[j])} (columns [{int(bounds[col_to_sn[j]])}, "
            f"{int(bounds[col_to_sn[j] + 1])})): column {j}'s etree parent is not "
            f"column {j + 1}")

    # All row lists live in one array, supernode after supernode: the
    # supernode's own columns, then its last column's rows below it.
    last = l_indptr[bounds[1:] - 1]
    widths = np.diff(bounds)
    nbelow = l_indptr[bounds[1:]] - last - 1
    ptr = ptr_from_counts(widths + nbelow)
    # One gather from L that starts ``width - 1`` entries ahead of the last
    # column: the head slots it fills get the supernode's columns next, and
    # the rest is the last column, diagonal first.
    rows = l_indices[np.repeat(last - (widths - 1) - ptr[:-1], widths + nbelow)
                     + np.arange(int(ptr[-1]))]
    columns = np.arange(n)
    rows[ptr[col_to_sn] + columns - bounds[col_to_sn]] = columns

    parent = np.full(ns, NO_PARENT, dtype=np.int64)
    has_below = nbelow > 0
    parent[has_below] = col_to_sn[l_indices[last[has_below] + 1]]
    ptr, bounds = ptr.tolist(), bounds.tolist()
    nodes = [
        Supernode(index=s, col_lo=bounds[s], col_hi=bounds[s + 1], rows=rows[ptr[s] : ptr[s + 1]])
        for s in range(ns)
    ]
    return SupernodalTree(supernodes=nodes, parent=parent)
