"""Real execution of the triangular solves on the host.

The :mod:`repro.machine` layer *simulates* the paper's message-passing
solvers to reproduce its timing figures; this package *executes* the
solves for real.  There are two executions and a reference: the flat,
vectorized level program (``fused`` — each elimination-tree level batched
into a handful of whole-level array ops; what ``solve(backend="fused")``
and the serving layer run), the serial supernodal walker of
:mod:`repro.numeric.trisolve` (``serial``, the reference), and the
dependency-counted thread pool of :mod:`repro.exec.engine`, which no
option selects any more.  The layers are deliberately separate from the
simulator: simulated seconds validate the paper's model, measured seconds
are what ``python -m benchmarks.spine`` reports
(``benchmarks/spine/README.md``).

Public surface (building blocks only this package and its tests touch
are imported from their submodules):

* :func:`forward_fused` / :func:`backward_fused` / :func:`solve_fused` —
  the fused level-program entry points (vector or ``(n, nrhs)`` blocks);
  :func:`warm_fused` builds the one-column workspace and call tapes
  ahead of the first solve (the serving layer's registration).
* :func:`compile_level_program` / :func:`program_for` — explicit or
  cached compilation of a supernodal tree into a :class:`LevelProgram`;
  ``program_for(..., certify=True)`` runs the static schedule certifier
  (:mod:`repro.verify.schedule`) first.
* :func:`fused_certificate_for` — the memoized determinism certificate
  (race-freedom + exactly-once coverage proofs) of a structure's level
  program, judged against the tree.
* :func:`solve_exec` / :func:`default_workers`, :func:`build_plan` /
  :func:`plan_for` and :func:`certificate_for` — the thread-pool engine,
  its :class:`ExecPlan` and the plan's certificate, kept only because
  ``benchmarks/spine`` measures them as a baseline and the tests use the
  engine as a second bitwise reference.  No fused solve builds a plan.
* :func:`prepare_factor`, :func:`fused_panels_for`,
  :func:`clear_exec_caches`, :func:`exec_cache_stats` — value
  preparation and cache control.
"""

from repro.exec.cache import (
    certificate_for,
    clear_exec_caches,
    exec_cache_stats,
    fused_certificate_for,
    plan_for,
    prepare_factor,
    program_for,
)
from repro.exec.engine import default_workers, solve_exec
from repro.exec.fused import (
    backward_fused,
    forward_fused,
    fused_panels_for,
    solve_fused,
    warm_fused,
)
from repro.exec.plan import (
    ExecPlan,
    Level,
    LevelProgram,
    build_plan,
    compile_level_program,
)

#: The backends that execute on the host (all but ``"sim"``); the solver and
#: the CLI derive the names they accept from this tuple.
REAL_BACKENDS = ("serial", "fused")

__all__ = [
    "REAL_BACKENDS",
    "ExecPlan",
    "Level",
    "LevelProgram",
    "backward_fused",
    "build_plan",
    "certificate_for",
    "clear_exec_caches",
    "compile_level_program",
    "default_workers",
    "exec_cache_stats",
    "forward_fused",
    "fused_certificate_for",
    "fused_panels_for",
    "plan_for",
    "prepare_factor",
    "program_for",
    "solve_exec",
    "solve_fused",
    "warm_fused",
]
