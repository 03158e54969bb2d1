"""Synthetic analogues of the paper's five test matrices.

The paper benchmarks on Harwell-Boeing / NASA matrices that we cannot ship
(and whose full sizes are impractical for a pure-Python multifrontal
factorization).  Each analogue preserves the *class* that drives the
paper's analysis — 2-D vs 3-D neighbourhood graph, regular vs irregular —
at a documented scale factor.  The scalability conclusions depend on the
class and on N, not on the specific matrix.

==============  =========  ========================  ==============================
paper matrix    paper N    analogue                  class
==============  =========  ========================  ==============================
BCSSTK15        3 948      fe_mesh_2d(63)  N=3969    2-D structural (same N!)
BCSSTK31        35 588     fe_mesh_3d(13)  N=2197    3-D irregular shell (scaled)
HSCT21954       21 954     fe_mesh_3d(12)  N=1728    3-D irregular aero (scaled)
CUBE35          42 875     grid3d(14)      N=2744    3-D regular grid (scaled)
COPTER2         55 476     fe_mesh_3d(13)' N=2197    3-D irregular rotor (scaled)
==============  =========  ========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.sparse.csc import SymCSC
from repro.sparse.generators import fe_mesh_2d, fe_mesh_3d, grid2d_laplacian, grid3d_laplacian


@dataclass(frozen=True)
class Workload:
    """One registered test matrix analogue."""

    name: str
    paper_name: str
    paper_n: int
    kind: str  # "2d" | "3d"
    build: Callable[[], SymCSC]

    def matrix(self) -> SymCSC:
        return self.build()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("bcsstk15", "BCSSTK15", 3948, "2d", lambda: fe_mesh_2d(63, seed=15)),
        Workload("bcsstk31", "BCSSTK31", 35588, "3d", lambda: fe_mesh_3d(13, seed=31)),
        Workload("hsct21954", "HSCT21954", 21954, "3d", lambda: fe_mesh_3d(12, seed=219)),
        Workload("cube35", "CUBE35", 42875, "3d", lambda: grid3d_laplacian(14)),
        Workload("copter2", "COPTER2", 55476, "3d", lambda: fe_mesh_3d(13, seed=2)),
        # Smaller controls used by fast tests and the quickstart example.
        Workload("grid2d-small", "(model)", 0, "2d", lambda: grid2d_laplacian(16)),
        Workload("grid3d-small", "(model)", 0, "3d", lambda: grid3d_laplacian(7)),
    ]
}


def get_workload(name: str) -> Workload:
    """Look up a registered workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; options: {sorted(WORKLOADS)}") from None


# ---------------------------------------------------------------- caching
# Symbolic analysis + numeric factorization are independent of p, the
# machine spec, and NRHS; cache them so sweeps only pay for simulation.
_PREPARED: dict[str, ParallelSparseSolver] = {}


def prepared(
    name: str, p: int, *, spec: MachineSpec | None = None, b: int = 8, variant: str = "column"
) -> ParallelSparseSolver:
    """A ready-to-solve solver for workload *name* on *p* processors.

    The expensive, p-independent phases (ordering, symbolic, numeric
    factorization) are computed once per workload and shared.
    """
    spec = spec or cray_t3d()
    base = _PREPARED.get(name)
    if base is None:
        wl = get_workload(name)
        base = ParallelSparseSolver(wl.matrix(), p=1, spec=spec, b=b).prepare()
        _PREPARED[name] = base
    solver = ParallelSparseSolver(base.a, p=p, spec=spec, b=b, variant=variant)
    solver.symbolic = base.symbolic
    solver.factor = base.factor
    from repro.mapping.subtree_subcube import subtree_to_subcube

    solver.assign = subtree_to_subcube(base.symbolic.stree, p)
    return solver
