"""Figure 5 / Equations 5-9: measured isoefficiency of the triangular solvers.

The paper proves the sparse triangular solvers have isoefficiency
``W ~ p^2`` (for both 2-D and 3-D neighbourhood-graph matrices) while the
companion factorization scales as ``p^{3/2}``.  This experiment measures
both empirically on the simulated machine: for each p it grows the model
problem until efficiency reaches a target, then fits ``W ~ p^k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.isoefficiency import fit_growth_exponent, isoefficiency_curve
from repro.core.factor_model import parallel_factor_time, serial_factor_time
from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian


@dataclass(frozen=True)
class IsoefficiencyResult:
    """Empirical isoefficiency of one system (solver or factorization)."""

    system: str
    kind: str  # 2d | 3d
    target_efficiency: float
    points: list[tuple[int, float, float]]  # (p, W, achieved E)
    exponent: float


_SOLVER_CACHE: dict[tuple[str, int], ParallelSparseSolver] = {}


def _prepared_model(kind: str, size: int) -> ParallelSparseSolver:
    key = (kind, size)
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        a = grid2d_laplacian(size) if kind == "2d" else grid3d_laplacian(size)
        solver = ParallelSparseSolver(a, p=1, spec=cray_t3d(), relax=0).prepare()
        _SOLVER_CACHE[key] = solver
    return solver


def _trisolve_runner(kind: str, spec: MachineSpec, seed: int = 5):
    rng = np.random.default_rng(seed)

    def runner(size: int, p: int) -> tuple[float, float, float]:
        base = _prepared_model(kind, size)
        stree = base.symbolic.stree
        w = float(stree.solve_flops(1)) * 2.0
        b = rng.normal(size=(base.a.n, 1))
        # Serial time: simulate on one processor.
        s1 = ParallelSparseSolver(base.a, p=1, spec=spec, relax=0)
        s1.symbolic, s1.factor = base.symbolic, base.factor
        s1.assign = subtree_to_subcube(stree, 1)
        _, rep1 = s1.solve(b, check=False)
        sp = ParallelSparseSolver(base.a, p=p, spec=spec, relax=0)
        sp.symbolic, sp.factor = base.symbolic, base.factor
        sp.assign = subtree_to_subcube(stree, p)
        _, repp = sp.solve(b, check=False)
        return w, rep1.fbsolve_seconds, repp.fbsolve_seconds

    return runner


def _factor_runner(kind: str, spec: MachineSpec):
    def runner(size: int, p: int) -> tuple[float, float, float]:
        base = _prepared_model(kind, size)
        stree = base.symbolic.stree
        w = float(stree.factor_flops())
        ts = serial_factor_time(spec, stree)
        tp = parallel_factor_time(spec, stree, subtree_to_subcube(stree, p))
        return w, ts, tp

    return runner


def _trisolve_model_runner(kind: str, spec: MachineSpec):
    """Closed-form Equation 1/2 runner — converges to the asymptotic
    exponent at processor counts far beyond what simulation reaches."""
    from repro.analysis.models import sparse_trisolve_model_2d, sparse_trisolve_model_3d

    model = sparse_trisolve_model_2d if kind == "2d" else sparse_trisolve_model_3d

    def runner(size: int, p: int) -> tuple[float, float, float]:
        n = size * size if kind == "2d" else size**3
        import math

        w = 2.0 * n * math.log2(max(n, 2)) if kind == "2d" else 2.0 * float(n) ** (4.0 / 3.0)
        return w, model(spec, n, 1), model(spec, n, p)

    return runner


def _factor_model_runner(kind: str, spec: MachineSpec):
    """Closed-form 2-D-partitioned factorization model (Figure 5 row):
    W = O(N^{3/2}) (2-D) or O(N^2) (3-D), T_o = O(N sqrt(p)) resp.
    O(N^{4/3} sqrt(p)) — isoefficiency O(p^{3/2})."""
    import math

    def runner(size: int, p: int) -> tuple[float, float, float]:
        n = float(size * size if kind == "2d" else size**3)
        w = n**1.5 if kind == "2d" else n * n
        eff = spec.t_flop * spec.blas3_factor
        ts = w * eff
        comm = (n if kind == "2d" else n ** (4.0 / 3.0)) * math.sqrt(p) * spec.t_w
        tp = ts / p + comm / p + math.sqrt(n) * spec.t_s
        return w, ts, tp

    return runner


def isoefficiency_experiment(
    *,
    kind: str = "2d",
    system: str = "trisolve",
    ps: tuple[int, ...] = (4, 8, 16, 32),
    target_e: float = 0.3,
    size_lo: int = 6,
    size_hi: int = 70,
    spec: MachineSpec | None = None,
) -> IsoefficiencyResult:
    """Measure the isoefficiency exponent of the chosen system.

    ``system`` is "trisolve" (expect k ~ 2) or "factor" (expect k ~ 1.5,
    the paper's O(p^1.5) for 2-D partitioned factorization).
    """
    spec = spec or cray_t3d()
    if system == "trisolve":
        runner = _trisolve_runner(kind, spec)
    elif system == "factor":
        runner = _factor_runner(kind, spec)
    elif system == "trisolve-model":
        runner = _trisolve_model_runner(kind, spec)
        size_hi = max(size_hi, 100_000)
    elif system == "factor-model":
        runner = _factor_model_runner(kind, spec)
        size_hi = max(size_hi, 100_000)
    else:
        raise ValueError(f"unknown system {system!r}")
    if kind == "3d" and system in ("trisolve", "factor"):
        size_hi = min(size_hi, 16)
    points = isoefficiency_curve(
        runner, ps, target_e, size_lo=size_lo, size_hi=size_hi
    )
    exponent = fit_growth_exponent([(p, w) for p, w, _ in points])
    return IsoefficiencyResult(
        system=system,
        kind=kind,
        target_efficiency=target_e,
        points=points,
        exponent=exponent,
    )
