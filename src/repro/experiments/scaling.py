"""Equations 1-2: measured parallel time against the closed-form models.

Sweeps N and p on model 2-D / 3-D meshes, records the simulated FBsolve
time, and compares its shape with the paper's T_P expressions: the work
term ``~ W/p`` must dominate at small p, the ``O(sqrt N)`` / ``O(N^{2/3})``
pipeline-drain term at medium p, and the ``O(p)`` startup term at large p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.models import sparse_trisolve_model_2d, sparse_trisolve_model_3d
from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian


@dataclass(frozen=True)
class ScalingPoint:
    kind: str
    n: int
    p: int
    measured_seconds: float
    model_seconds: float


def scaling_law_experiment(
    *,
    kind: str = "2d",
    sizes: tuple[int, ...] = (16, 24, 32, 48),
    ps: tuple[int, ...] = (1, 4, 16, 64),
    spec: MachineSpec | None = None,
    seed: int = 12,
) -> list[ScalingPoint]:
    """Measured vs modeled T_P over an (N, p) grid."""
    spec = spec or cray_t3d()
    rng = np.random.default_rng(seed)
    model = sparse_trisolve_model_2d if kind == "2d" else sparse_trisolve_model_3d
    build = grid2d_laplacian if kind == "2d" else grid3d_laplacian
    out: list[ScalingPoint] = []
    for size in sizes:
        a = build(size)
        base = ParallelSparseSolver(a, p=1, spec=spec, relax=0).prepare()
        b = rng.normal(size=(a.n, 1))
        for p in ps:
            solver = ParallelSparseSolver(a, p=p, spec=spec, relax=0)
            solver.symbolic, solver.factor = base.symbolic, base.factor
            solver.assign = subtree_to_subcube(base.symbolic.stree, p)
            _, rep = solver.solve(b, check=False)
            out.append(
                ScalingPoint(
                    kind=kind,
                    n=a.n,
                    p=p,
                    measured_seconds=rep.fbsolve_seconds,
                    model_seconds=2.0 * model(spec, a.n, p),
                )
            )
    return out
