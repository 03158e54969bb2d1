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
from repro.symbolic.supernodes import SupernodePartition
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
    """Supernodes plus their tree structure and per-node levels."""

    supernodes: list[Supernode]
    parent: np.ndarray
    children: list[list[int]] = field(init=False)
    level: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        ns = len(self.supernodes)
        require(self.parent.shape[0] == ns, "parent array size mismatch")
        for sn in self.supernodes:
            # No executor or compiler carries a lane for an empty panel.
            require(sn.col_hi > sn.col_lo,
                    f"supernode {sn.index} has no columns "
                    f"(col_lo={sn.col_lo}, col_hi={sn.col_hi})")
        self.children = [[] for _ in range(ns)]
        for s in range(ns):
            p = int(self.parent[s])
            if p != NO_PARENT:
                require(p > s, "supernodal tree parents must have higher indices")
                self.children[p].append(s)
        # Levels follow the paper's Figure 1: roots at level 0.
        self.level = -np.ones(ns, dtype=np.int64)
        for s in range(ns - 1, -1, -1):
            p = int(self.parent[s])
            self.level[s] = 0 if p == NO_PARENT else self.level[p] + 1

    @property
    def nsuper(self) -> int:
        return len(self.supernodes)

    # Cached counters: read on every solve, and the tree is immutable once built.
    @cached_property
    def n(self) -> int:
        return max((sn.col_hi for sn in self.supernodes), default=0)

    def roots(self) -> list[int]:
        return [s for s in range(self.nsuper) if self.parent[s] == NO_PARENT]

    def bottom_up_levels(self) -> np.ndarray:
        """Per-supernode level counted from the leaves (leaves at 0).

        ``bottom_up_levels()[s] = 1 + max(levels of children)`` — the earliest
        parallel step at which supernode ``s`` can run in a level-scheduled
        forward elimination, and (reversed) the dependency depth of the
        backward substitution.  Complements :attr:`level`, which counts from
        the roots (paper Figure 1).
        """
        out = np.zeros(self.nsuper, dtype=np.int64)
        for s in range(self.nsuper):
            if self.children[s]:
                out[s] = 1 + max(int(out[c]) for c in self.children[s])
        return out

    def topo_order(self) -> range:
        """Bottom-up order: node indices ascend from leaves to roots.

        Column-contiguous supernodes over a postordered etree are already
        topologically sorted by construction (children precede parents).
        """
        return range(self.nsuper)

    def factor_nnz(self) -> int:
        """Nonzeros of L counted through the trapezoids."""
        total = 0
        for sn in self.supernodes:
            t, n = sn.t, sn.n
            total += t * (t + 1) // 2 + (n - t) * t
        return total

    @cached_property
    def _solve_flops_per_rhs(self) -> int:
        from repro.util.flops import supernode_solve_flops

        return sum(supernode_solve_flops(sn.n, sn.t) for sn in self.supernodes)

    def solve_flops(self, nrhs: int = 1) -> int:
        """Flops of one forward (or backward) triangular solve (linear in ``nrhs``)."""
        return nrhs * self._solve_flops_per_rhs

    @cached_property
    def _factor_flops(self) -> int:
        total = 0
        for sn in self.supernodes:
            t, n = sn.t, sn.n
            # Dense t x t Cholesky + triangular solve for the below block
            # + symmetric rank-t update of the (n-t) x (n-t) frontal part.
            total += t**3 // 3 + (n - t) * t * t + (n - t) ** 2 * t
        return total

    def factor_flops(self) -> int:
        """Flops of the supernodal Cholesky factorization."""
        return self._factor_flops


def build_supernodal_tree(
    l_indptr: np.ndarray,
    l_indices: np.ndarray,
    partition: SupernodePartition,
) -> SupernodalTree:
    """Assemble the supernodal tree from the factor pattern and a partition.

    The row structure of a supernode is the union of its columns' patterns
    restricted to rows ``>= col_hi`` (for fundamental supernodes this equals
    the first column's pattern; the union form also supports relaxed
    amalgamation).  The tree parent of a supernode is the supernode owning
    its smallest below-row.
    """
    col_to_sn = partition.column_to_supernode()
    nodes: list[Supernode] = []
    parent = np.full(partition.nsuper, NO_PARENT, dtype=np.int64)
    for s in range(partition.nsuper):
        lo, hi = partition.columns(s)
        below: set[int] = set()
        for j in range(lo, hi):
            col_rows = l_indices[l_indptr[j] : l_indptr[j + 1]]
            for i in col_rows:
                if int(i) >= hi:
                    below.add(int(i))
        below_arr = np.asarray(sorted(below), dtype=np.int64)
        rows = np.concatenate([np.arange(lo, hi, dtype=np.int64), below_arr])
        nodes.append(Supernode(index=s, col_lo=lo, col_hi=hi, rows=rows))
        if below_arr.size:
            parent[s] = int(col_to_sn[below_arr[0]])
    return SupernodalTree(supernodes=nodes, parent=parent)
