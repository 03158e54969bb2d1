"""Symbolic factorization.

Everything that can be computed from the *pattern* of the reordered matrix:

* the elimination tree (Liu's algorithm with path compression);
* its postordering (which makes supernode columns contiguous);
* the fill pattern of the Cholesky factor L;
* fundamental supernodes (optionally relaxed by amalgamation) and the
  supernodal elimination tree, whose nodes are the dense trapezoidal
  blocks (width t, height n) that the paper's pipelined solvers operate
  on.

The one-call driver is :func:`analyze`.
"""

from repro.symbolic.etree import elimination_tree
from repro.symbolic.postorder import postorder, tree_levels, children_lists
from repro.symbolic.pattern import symbolic_factor_pattern
from repro.symbolic.supernodes import find_supernodes, SupernodePartition
from repro.symbolic.stree import SupernodalTree, Supernode, build_supernodal_tree
from repro.symbolic.analyze import SymbolicFactor, analyze

__all__ = [
    "elimination_tree",
    "postorder",
    "tree_levels",
    "children_lists",
    "symbolic_factor_pattern",
    "find_supernodes",
    "SupernodePartition",
    "SupernodalTree",
    "Supernode",
    "build_supernodal_tree",
    "SymbolicFactor",
    "analyze",
]
