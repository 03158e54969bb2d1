"""repro — parallel sparse triangular solvers (Gupta & Kumar, SC'95).

A full reproduction of *Parallel Algorithms for Forward and Back
Substitution in Direct Solution of Sparse Linear Systems*: sparse
substrate, fill-reducing orderings, symbolic/numeric supernodal Cholesky,
a simulated distributed-memory machine, the paper's pipelined
block-cyclic triangular solvers with subtree-to-subcube mapping, the
2-D -> 1-D factor redistribution, and the scalability analysis tooling.

Quickstart::

    import numpy as np
    from repro import ParallelSparseSolver, grid2d_laplacian

    a = grid2d_laplacian(32)                      # 2-D model problem
    solver = ParallelSparseSolver(a, p=16).prepare()
    x, report = solver.solve(np.ones(a.n))
    print(report.fbsolve_seconds, report.fbsolve_mflops, report.residual)
"""

from repro.core.solver import ParallelSparseSolver, SolveReport, TrisolveRun
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.sparse.generators import (
    fe_mesh_2d,
    fe_mesh_3d,
    grid2d_laplacian,
    grid3d_laplacian,
    model_problem,
    random_spd,
)
from repro.sparse.csc import LowerCSC, SymCSC
from repro.symbolic.analyze import SymbolicFactor, analyze

__version__ = "1.0.0"

__all__ = [
    "ParallelSparseSolver",
    "SolveReport",
    "TrisolveRun",
    "MachineSpec",
    "cray_t3d",
    "SymCSC",
    "LowerCSC",
    "grid2d_laplacian",
    "grid3d_laplacian",
    "fe_mesh_2d",
    "fe_mesh_3d",
    "random_spd",
    "model_problem",
    "SymbolicFactor",
    "analyze",
    "__version__",
]
