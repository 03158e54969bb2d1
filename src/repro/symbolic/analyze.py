"""One-call symbolic analysis driver.

``analyze(a, method=...)`` runs the full pre-numeric pipeline:

1. fill-reducing ordering (nested dissection by default);
2. permute ``A`` and compute the elimination tree;
3. postorder the tree and fold the postorder into the permutation (a
   postorder is pattern-equivalent, so fill is unchanged);
4. symbolic factorization (pattern of L);
5. supernode detection and supernodal-tree assembly.

The returned :class:`SymbolicFactor` carries everything the numeric phase
and the parallel mapping need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ordering.api import order as compute_order
from repro.ordering.permutation import Permutation
from repro.sparse.csc import SymCSC
from repro.symbolic.etree import elimination_tree
from repro.symbolic.pattern import symbolic_factor_pattern
from repro.symbolic.postorder import postorder, relabel_tree
from repro.symbolic.stree import SupernodalTree, build_supernodal_tree
from repro.symbolic.supernodes import SupernodePartition, find_supernodes


@dataclass(frozen=True)
class SymbolicFactor:
    """Output of symbolic analysis.

    Attributes
    ----------
    perm : total permutation (new <- old) including ordering and postorder.
    a_perm : the reordered matrix ``P A P^T``.
    etree_parent : elimination tree of ``a_perm`` (postordered).
    l_indptr, l_indices : CSC pattern of L (diagonal-first columns).
    partition : supernode partition of the columns.
    stree : the supernodal elimination tree.
    """

    perm: Permutation
    a_perm: SymCSC
    etree_parent: np.ndarray
    l_indptr: np.ndarray
    l_indices: np.ndarray
    partition: SupernodePartition
    stree: SupernodalTree

    @property
    def n(self) -> int:
        return self.a_perm.n

    @property
    def factor_nnz(self) -> int:
        return int(self.l_indptr[-1])


def analyze(
    a: SymCSC,
    *,
    method: str = "nested_dissection",
    relax: int = 0,
) -> SymbolicFactor:
    """Run ordering + symbolic factorization + supernode analysis on *a*."""
    perm0 = compute_order(a, method)
    a1 = a.permuted(perm0.perm)
    parent1 = elimination_tree(a1)
    post = postorder(parent1)
    if not np.array_equal(post.perm, np.arange(a.n)):
        # total[new] = perm0[post[new]]: postorder re-numbers the already
        # ordered variables.
        perm = Permutation(perm0.perm[post.perm])
        a2 = a1.permuted(post.perm)
        parent2 = relabel_tree(parent1, post)
    else:
        perm, a2, parent2 = perm0, a1, parent1
    l_indptr, l_indices = symbolic_factor_pattern(a2, parent2)
    counts = np.diff(l_indptr)
    partition = find_supernodes(parent2, counts, relax=relax)
    stree = build_supernodal_tree(l_indptr, l_indices, partition)
    return SymbolicFactor(
        perm=perm,
        a_perm=a2,
        etree_parent=parent2,
        l_indptr=l_indptr,
        l_indices=l_indices,
        partition=partition,
        stree=stree,
    )
