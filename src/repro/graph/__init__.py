"""Graph algorithms over sparse-matrix adjacency structures.

Provides the pieces the fill-reducing orderings are built from: compressed
adjacency, breadth-first traversal, pseudo-peripheral vertices, connected
components, and the level-structure vertex separator for graphs without
coordinates (meshes are cut geometrically by nested dissection itself).
"""

from repro.graph.structure import Adjacency, adjacency_from_matrix
from repro.graph.traversal import bfs_levels, connected_components, pseudo_peripheral
from repro.graph.separators import Separation, levelset_separator

__all__ = [
    "Adjacency",
    "adjacency_from_matrix",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral",
    "Separation",
    "levelset_separator",
]
