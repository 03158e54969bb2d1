"""Real shared-memory execution backends for the triangular solves.

The :mod:`repro.machine` layer *simulates* the paper's message-passing
solvers to reproduce its timing figures; this package *executes* the
solves on the host for real.  Two real backends share one schedule: the
level-scheduled thread pool over the supernodal tree (``threads``) and
the flat, vectorized level program (``fused``), which batches each
elimination-tree level into a handful of whole-level array ops.  The
layers are deliberately separate from the simulator: simulated seconds
validate the paper's model, measured seconds are what
``python -m benchmarks.spine`` reports (``benchmarks/spine/README.md``).

Public surface (building blocks only this package and its tests touch
are imported from their submodules):

* :func:`forward_exec` / :func:`backward_exec` / :func:`solve_exec` —
  the threaded engine entry points (vector or ``(n, nrhs)`` blocks).
* :func:`forward_fused` / :func:`backward_fused` / :func:`solve_fused` —
  the fused level-program entry points; bitwise identical results.
* :func:`build_plan` / :func:`plan_for` — explicit or cached
  :class:`ExecPlan` construction; ``plan_for(..., certify=True)`` runs
  the static schedule certifier (:mod:`repro.verify.schedule`) first.
* :func:`compile_level_program` / :func:`program_for` — explicit or
  cached compilation of a plan into a :class:`LevelProgram`.
* :func:`certificate_for` / :func:`fused_certificate_for` — the memoized
  determinism certificates (race-freedom + exactly-once coverage proofs)
  for a structure's plan and for its fused level program.
* :func:`prepare_factor`, :func:`fused_panels_for`,
  :func:`clear_exec_caches`, :func:`exec_cache_stats` — value
  preparation and cache control.
"""

from repro.exec.cache import (
    certificate_for,
    clear_exec_caches,
    exec_cache_stats,
    fused_certificate_for,
    fused_panels_for,
    plan_for,
    prepare_factor,
    program_for,
)
from repro.exec.engine import (
    backward_exec,
    default_workers,
    forward_exec,
    solve_exec,
)
from repro.exec.fused import backward_fused, forward_fused, solve_fused
from repro.exec.plan import (
    ExecPlan,
    Level,
    LevelProgram,
    build_plan,
    compile_level_program,
)

#: The backends that execute on the host (all but ``"sim"``); the solver, the
#: serving layer and the CLI derive the names they accept from this tuple.
REAL_BACKENDS = ("serial", "threads", "fused")

__all__ = [
    "REAL_BACKENDS",
    "ExecPlan",
    "Level",
    "LevelProgram",
    "backward_exec",
    "backward_fused",
    "build_plan",
    "certificate_for",
    "clear_exec_caches",
    "compile_level_program",
    "default_workers",
    "exec_cache_stats",
    "forward_exec",
    "forward_fused",
    "fused_certificate_for",
    "fused_panels_for",
    "plan_for",
    "prepare_factor",
    "program_for",
    "solve_exec",
    "solve_fused",
]
