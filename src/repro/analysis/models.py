"""Closed-form parallel-time and overhead models (paper Section 3).

Equation 1 (2-D neighbourhood graphs, nested-dissection ordering)::

    T_P = c_w * N log N / p  +  c_1 * sqrt(N)  +  c_2 * p

Equation 2 (3-D neighbourhood graphs)::

    T_P = c_w * N^{4/3} / p  +  c_1 * N^{2/3}  +  c_2 * p

and the corresponding overhead functions (Equations 4 and 8)::

    T_o(2-D) = O(p^2) + O(p sqrt(N))      =>  W ~ p^2   (Eq. 5-6)
    T_o(3-D) = O(p^2) + O(p N^{2/3})      =>  W ~ p^2   (Eq. 9)

The dense 1-D block-cyclic triangular solver has ``T_comm ~ b(p-1) + N``,
``T_o = O(p^2) + O(N p)``, ``W = O(N^2)`` hence also ``W ~ p^2`` — the
sense in which the sparse solvers are "asymptotically as scalable as a
dense triangular solver" and therefore optimal (Section 3.3).

:func:`figure5_table` reproduces the paper's Figure 5: communication
overhead and isoefficiency for {dense, sparse-2D, sparse-3D} x
{1-D, 2-D partitioning} x {factorization, triangular solution}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.spec import MachineSpec


# --------------------------------------------------------------------- T_P
# The free constants of the paper's O-terms, calibrated once against the
# event simulation on model meshes (see ``benchmarks/bench_scaling_laws.py``;
# log-log correlation > 0.99): _C_WORK scales the W/p term (W ~ 2 nnz(L) ~
# c N log N for nested-dissection-ordered 5/9-point meshes), _C_SEP the
# separator pipeline-drain term, and _C_P the O(p) startup term (small
# because the implementation trims idle ring segments).
_C_WORK, _C_SEP, _C_P = 3.0, 20.0, 0.05


def sparse_trisolve_model_2d(
    spec: MachineSpec, n: int, p: int, *, nrhs: int = 1, b: int = 8
) -> float:
    """Equation 1 with explicit machine constants."""
    if p < 1 or n < 1:
        raise ValueError("n and p must be >= 1")
    work_flops = _C_WORK * 2.0 * n * math.log2(max(n, 2)) * nrhs
    t_work = work_flops * spec.t_flop * spec.flop_efficiency(nrhs) / p
    t_sep = _C_SEP * math.sqrt(n) * nrhs * spec.t_w  # t-term: pipeline drain
    t_pipe = _C_P * (b * nrhs * spec.t_w + spec.t_s) * p  # q-term over levels
    return t_work + t_sep + t_pipe


def sparse_trisolve_model_3d(
    spec: MachineSpec, n: int, p: int, *, nrhs: int = 1, b: int = 8
) -> float:
    """Equation 2 with explicit machine constants."""
    if p < 1 or n < 1:
        raise ValueError("n and p must be >= 1")
    work_flops = _C_WORK * 2.0 * float(n) ** (4.0 / 3.0) * nrhs
    t_work = work_flops * spec.t_flop * spec.flop_efficiency(nrhs) / p
    t_sep = _C_SEP * float(n) ** (2.0 / 3.0) * nrhs * spec.t_w
    t_pipe = _C_P * (b * nrhs * spec.t_w + spec.t_s) * p
    return t_work + t_sep + t_pipe


# ------------------------------------------------------------------- Fig. 5
@dataclass(frozen=True)
class Figure5Row:
    """One row of the paper's Figure 5 table (symbolic complexity entries)."""

    matrix_type: str  # dense | sparse-2d | sparse-3d
    partitioning: str  # 1-D | 2-D (with subtree-subcube for sparse)
    factor_comm: str
    factor_iso: str
    solve_comm: str
    solve_iso: str
    overall_iso: str


def figure5_table() -> list[Figure5Row]:
    """The paper's Figure 5, transcribed as data.

    The shaded "most efficient" entries are: 2-D partitioning for
    factorization, 1-D for triangular solution; the overall isoefficiency
    is dominated by factorization in every case.
    """
    return [
        Figure5Row(
            "dense", "1-D",
            factor_comm="O(N^2 p)", factor_iso="O(p^3)",
            solve_comm="O(p^2) + O(N p)", solve_iso="O(p^2)",
            overall_iso="O(p^3)",
        ),
        Figure5Row(
            "dense", "2-D",
            factor_comm="O(N^2 p^{1/2})", factor_iso="O(p^{3/2})",
            solve_comm="O(N p^{1/2})", solve_iso="unscalable",
            overall_iso="O(p^{3/2})",
        ),
        Figure5Row(
            "sparse-2d", "1-D + subtree-subcube",
            factor_comm="O(N p)", factor_iso="O(p^3)",
            solve_comm="O(p^2) + O(N^{1/2} p)", solve_iso="O(p^2)",
            overall_iso="O(p^3)",
        ),
        Figure5Row(
            "sparse-2d", "2-D + subtree-subcube",
            factor_comm="O(N p^{1/2})", factor_iso="O(p^{3/2})",
            solve_comm="O(N p^{1/2})", solve_iso="unscalable",
            overall_iso="O(p^{3/2})",
        ),
        Figure5Row(
            "sparse-3d", "1-D + subtree-subcube",
            factor_comm="O(N^{4/3} p)", factor_iso="O(p^3)",
            solve_comm="O(p^2) + O(N^{2/3} p)", solve_iso="O(p^2)",
            overall_iso="O(p^3)",
        ),
        Figure5Row(
            "sparse-3d", "2-D + subtree-subcube",
            factor_comm="O(N^{4/3} p^{1/2})", factor_iso="O(p^{3/2})",
            solve_comm="O(N^{4/3} p^{1/2})", solve_iso="unscalable",
            overall_iso="O(p^{3/2})",
        ),
    ]
