"""Per-structure program cache and per-factor value preparation.

Repeated solves against the same factorization are the common case (multi
right-hand-side workloads, iterative refinement, time stepping), so
nothing is rebuilt that can be reused:

* :func:`program_for` caches the compiled
  :class:`~repro.exec.plan.LevelProgram` per symbolic structure, keyed by
  the identity of the :class:`~repro.symbolic.stree.SupernodalTree` every
  :class:`~repro.symbolic.analyze.SymbolicFactor` and
  :class:`~repro.numeric.supernodal.SupernodalFactor` share; entries are
  evicted automatically when the structure is garbage collected.
  :func:`fused_certificate_for` memoizes the program's
  :class:`~repro.verify.schedule.ScheduleCertificate` alongside it (same
  key, same eviction; ``program_for(..., certify=True)`` raises
  :class:`repro.verify.VerificationError` on any finding, and repeated
  certified solves pay for the proof exactly once per structure).  Both
  are built from the tree alone.  A program's packed panel values are no
  cache of this module: they live in the prepared factor's arena, next
  to the program's workspaces (:func:`repro.exec.fused.fused_panels_for`).
* :func:`prepare_factor` caches a :class:`PreparedFactor` per numeric
  factor: contiguous diagonal/rectangle views of each trapezoid and the
  diagonal blocks' inverses, behind a one-time, one-pass singularity
  screen over every pivot, so a zero or non-finite diagonal raises a
  clean :class:`ValueError` *before* any task is dispatched (never a
  wrong answer or a hung pool).  Each
  prepared factor owns a :class:`~repro.exec.arena.WorkspaceArena`, so
  the solve workspaces share the factor's lifetime and eviction.
* :func:`plan_for` caches the thread-pool engine's default-grain
  :class:`~repro.exec.plan.ExecPlan` per structure, and
  :func:`certificate_for` the plan's certificate; no fused solve, and
  nothing of the serving layer, builds either.

All caches are thread-safe and observable (:func:`exec_cache_stats`),
and :func:`clear_exec_caches` resets them (tests, benchmarks).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.exec.arena import WorkspaceArena
from repro.exec.plan import ExecPlan, LevelProgram, build_plan, compile_level_program
from repro.numeric.supernodal import SupernodalFactor
from repro.symbolic.stree import SupernodalTree

if TYPE_CHECKING:
    from repro.verify.schedule import ScheduleCertificate


class _IdentityCache:
    """A dict keyed by object identity with weakref-driven eviction."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[int, tuple[weakref.ref, object]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, anchor: object, build: Callable[[], Any]) -> Any:
        """The value cached for *anchor*, built (outside the lock) on a miss.

        Two threads that miss at once both build, and both get the value
        filed first — never two values for one anchor.
        """
        with self._lock:
            entry = self._entries.get(id(anchor))
            if entry is not None and entry[0]() is anchor:
                self.hits += 1
                return entry[1]
            self.misses += 1
        value = build()
        with self._lock:
            entry = self._entries.get(id(anchor))
            if entry is not None and entry[0]() is anchor:
                return entry[1]
            self._entries[id(anchor)] = (weakref.ref(anchor), value)
        weakref.finalize(anchor, self._evict, id(anchor))
        return value

    def _evict(self, key: int) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_PLANS = _IdentityCache()
_PREPARED = _IdentityCache()
_CERTS = _IdentityCache()
_PROGRAMS = _IdentityCache()
_FUSED_CERTS = _IdentityCache()


def plan_for(stree: SupernodalTree) -> ExecPlan:
    """The cached default-grain execution plan for *stree* (built on first use).

    (For another grain, hand :func:`~repro.exec.plan.build_plan`'s plan
    to ``plan=``.)
    """
    return _PLANS.get(stree, lambda: build_plan(stree))


def certificate_for(stree: SupernodalTree) -> "ScheduleCertificate":
    """The cached schedule certificate for *stree*'s cached plan.

    Runs :func:`repro.verify.schedule.certify_plan` on first use and
    memoizes the result with the same identity key and weakref eviction
    as the plan itself.  Returns the certificate whether or not it is
    clean — callers inspect ``.report``.
    """
    def certify() -> "ScheduleCertificate":
        from repro.verify.schedule import certify_plan

        return certify_plan(plan_for(stree), stree)

    return _CERTS.get(stree, certify)


@dataclass(frozen=True)
class PreparedFactor:
    """Kernel-ready views of one numeric factor.

    ``diag[s]`` is the ``t x t`` lower-triangular diagonal block and
    ``rect[s]`` the ``(n - t) x t`` below-diagonal rectangle of supernode
    ``s`` — both C-contiguous views into the factor's trapezoids (no data
    is copied).  ``inv[s]`` is the diagonal block's inverse the solves
    apply (the factor's own, see
    :meth:`~repro.numeric.supernodal.SupernodalFactor.diagonal_inverses`,
    whose one-pass screen validates every pivot first), so holding a
    ``PreparedFactor`` certifies the factor is cleanly solvable.

    ``arena`` pools the solve workspaces of every backend that runs
    against this factor; it lives and dies with the prepared factor, so
    repeated solves reuse buffers and eviction frees them together.
    """

    diag: list[np.ndarray]
    rect: list[np.ndarray]
    inv: list[np.ndarray]
    arena: WorkspaceArena = field(default_factory=WorkspaceArena, repr=False)


def _prepare(factor: SupernodalFactor) -> PreparedFactor:
    inv = factor.diagonal_inverses()  # screens every pivot first
    diag: list[np.ndarray] = []
    rect: list[np.ndarray] = []
    for sn, block in zip(factor.stree.supernodes, factor.blocks):
        t = sn.t
        diag.append(block[:t, :t])
        rect.append(block[t:, :t])
    return PreparedFactor(diag=diag, rect=rect, inv=inv)


def prepare_factor(factor: SupernodalFactor) -> PreparedFactor:
    """Cached kernel-ready form of *factor* (validated on first use)."""
    return _PREPARED.get(factor, lambda: _prepare(factor))


def program_for(stree: SupernodalTree, *, certify: bool = False) -> LevelProgram:
    """The cached fused :class:`LevelProgram` for *stree*.

    Level programs depend only on the symbolic structure.  With
    ``certify=True`` the program must additionally pass the fused
    schedule certifier (:func:`fused_certificate_for`) before it is
    handed out.
    """
    prog = _PROGRAMS.get(stree, lambda: compile_level_program(stree))
    if certify:
        fused_certificate_for(stree).report.raise_if_errors(
            "fused level program failed schedule certification"
        )
    return prog


def fused_certificate_for(stree: SupernodalTree) -> "ScheduleCertificate":
    """The cached schedule certificate for *stree*'s fused level program,
    judged against the tree itself (no plan is built)."""
    def certify() -> "ScheduleCertificate":
        from repro.verify.schedule import certify_level_program

        return certify_level_program(program_for(stree), stree)

    return _FUSED_CERTS.get(stree, certify)


def clear_exec_caches() -> None:
    """Drop all cached plans, programs, prepared factors and certificates."""
    _PLANS.clear()
    _PREPARED.clear()
    _CERTS.clear()
    _PROGRAMS.clear()
    _FUSED_CERTS.clear()


def exec_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for all five caches."""
    return {
        "plan_hits": _PLANS.hits,
        "plan_misses": _PLANS.misses,
        "plan_entries": len(_PLANS),
        "factor_hits": _PREPARED.hits,
        "factor_misses": _PREPARED.misses,
        "factor_entries": len(_PREPARED),
        "cert_hits": _CERTS.hits,
        "cert_misses": _CERTS.misses,
        "cert_entries": len(_CERTS),
        "program_hits": _PROGRAMS.hits,
        "program_misses": _PROGRAMS.misses,
        "program_entries": len(_PROGRAMS),
        "fused_cert_hits": _FUSED_CERTS.hits,
        "fused_cert_misses": _FUSED_CERTS.misses,
        "fused_cert_entries": len(_FUSED_CERTS),
    }
