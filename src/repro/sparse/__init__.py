"""Sparse matrix substrate.

Defines the compressed-sparse-column structures used throughout the solver
(:class:`SymCSC` for the SPD input matrix, :class:`LowerCSC` for triangular
factors), triplet assembly, and the workload generators that stand in for
the paper's Harwell-Boeing test matrices.
"""

from repro.sparse.csc import LowerCSC, SymCSC
from repro.sparse.build import from_triplets, from_dense, from_scipy
from repro.sparse.ops import (
    matvec,
    residual_norm,
    relative_residual,
    lower_triangular_matvec,
)
from repro.sparse.generators import (
    grid2d_laplacian,
    grid3d_laplacian,
    fe_mesh_2d,
    fe_mesh_3d,
    random_spd,
    model_problem,
)

__all__ = [
    "LowerCSC",
    "SymCSC",
    "from_triplets",
    "from_dense",
    "from_scipy",
    "matvec",
    "residual_norm",
    "relative_residual",
    "lower_triangular_matvec",
    "grid2d_laplacian",
    "grid3d_laplacian",
    "fe_mesh_2d",
    "fe_mesh_3d",
    "random_spd",
    "model_problem",
]
