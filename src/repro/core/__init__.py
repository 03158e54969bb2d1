"""The paper's primary contribution: parallel sparse triangular solvers.

* :mod:`repro.core.schedules` — the idealized step schedules of the
  paper's Figures 3 and 4 (EREW-PRAM, row-priority and column-priority
  pipelined variants).
* :mod:`repro.core.forward` / :mod:`repro.core.backward` — the real
  algorithms: task-graph builders that execute the numeric solve while the
  event simulator charges machine time (subtree-to-subcube mapping,
  1-D block-cyclic supernode pipelines, multiple right-hand sides).
* :mod:`repro.core.factor_model` — serial/parallel factorization time
  model (the Figure 7 yardstick).
* :mod:`repro.core.solver` — the end-to-end :class:`ParallelSparseSolver`.
"""

from repro.core.schedules import (
    pram_forward_schedule,
    pipelined_forward_schedule,
    pipelined_backward_schedule,
)
from repro.core.forward import parallel_forward
from repro.core.backward import parallel_backward
from repro.core.solver import ParallelSparseSolver, SolveReport, TrisolveRun
from repro.core.factor_model import serial_factor_time, parallel_factor_time
from repro.core.parallel_factor import simulated_factor_time
from repro.core.dense import dense_forward, dense_trisolve_time
from repro.core.forward_2d import parallel_forward_2d
from repro.core.spmd_forward import make_forward_program, spmd_forward
from repro.core.spmd_backward import make_backward_program, spmd_backward

__all__ = [
    "pram_forward_schedule",
    "pipelined_forward_schedule",
    "pipelined_backward_schedule",
    "parallel_forward",
    "parallel_backward",
    "ParallelSparseSolver",
    "SolveReport",
    "TrisolveRun",
    "serial_factor_time",
    "parallel_factor_time",
    "simulated_factor_time",
    "dense_forward",
    "dense_trisolve_time",
    "parallel_forward_2d",
    "make_forward_program",
    "spmd_forward",
    "make_backward_program",
    "spmd_backward",
]
