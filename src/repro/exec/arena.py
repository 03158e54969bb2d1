"""Reusable solve workspaces: the zero-allocation arena.

The engine's original hot path paid one ``np.zeros((n_s, m))`` per
supernode per solve plus a fresh contribution array per node — small
allocations whose cost dwarfs the arithmetic on fine-grained trees.  The
arena removes them: every buffer a solve needs is sized once per
``(program-or-plan, nrhs)`` and reused across solves.

:class:`WorkspaceArena` is a thread-safe lease/return pool attached to a
:class:`~repro.exec.cache.PreparedFactor`.  A solve *leases* a workspace
(built on first use), runs both sweeps inside the lease, and returns it
to the free list — so steady-state repeated solves allocate nothing,
while concurrent solves against the same factor each get their own
buffers and never race.  Every workspace is built for one owner (the
plan or program it is carved from) and is only ever handed back to that
owner, checked by the object itself, not by its ``id``.  The owner's
entry also keeps the one value all its workspaces share — a program's
packed panels — and goes as soon as the owner is collected.

Two workspace shapes live here:

* :class:`EngineWorkspace` — flat per-node accumulator and contribution
  arenas for the thread-pool engine baseline, carved by
  :func:`build_engine_workspace` from an :class:`~repro.exec.plan.ExecPlan` (per-node slices are disjoint,
  so concurrent tasks write without synchronisation);
* :class:`FusedWorkspace` — everything the fused backend writes, carved
  by :func:`build_fused_workspace` from a
  :class:`~repro.exec.plan.LevelProgram`: one ``[y | contrib]`` block
  (the solution rows, then the whole tree's contribution arena — the
  operand of every level's replay operator) and one scratch block sized
  for the widest level, which every level reuses: forward a level's
  ``[acc | tops]``, backward its ``[gather | t1 | t2]``.  It also holds
  the two tapes of pre-bound library calls that :mod:`repro.exec.fused`
  compiles over these buffers when it builds the workspace, so the
  sweeps allocate no arrays at all.  A workspace bound for the
  two-thread split gets one more scratch block, ``part_scratch``, sized
  for the rows of the part the worker thread runs; the caller's part
  and the top reuse ``scratch``, one after the other.
"""

from __future__ import annotations

import functools
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator

import numpy as np

from repro.exec.plan import ExecPlan, LevelProgram


@dataclass(slots=True)
class _Owner:
    """One owner's arena entry: its shared value and its free workspaces per key."""

    ref: weakref.ref
    shared: object = None
    free: dict[Hashable, list[object]] = field(default_factory=dict)


def _drop(arena: weakref.ref, key: int, ref: weakref.ref) -> None:
    """Forget a collected owner's entry (its weak reference's callback)."""
    pool = arena()
    if pool is not None:
        with pool._lock:
            if getattr(pool._owners.get(key), "ref", None) is ref:
                del pool._owners[key]


class WorkspaceArena:
    """Thread-safe lease/return pool of solve workspaces.

    A workspace belongs to an *owner* — the plan or program it was carved
    from — and a hashable *key* (the backends use ``(kind, nrhs)``).
    Everything the arena keeps for an owner sits in one entry filed under
    ``id(owner)`` with a weak reference to the owner: its free workspaces
    per key and one :meth:`shared` value (the fused backend's packed
    panels).  An entry is only ever used for the owner its reference
    still names, so a newcomer that inherits a collected owner's ``id``
    starts afresh; and the reference's callback drops the entry as soon
    as its owner is collected — the pattern of
    :class:`~repro.exec.cache._IdentityCache`'s finalizers, bound to the
    entry so that it dies with the arena instead of outliving it.  A
    workspace always goes back to the free list after a lease — even
    when the solve raises, since every buffer is fully rewritten by the
    next lease.  ``built``/``leases`` counters make reuse observable for
    tests and cache stats.
    """

    def __init__(self) -> None:
        # re-entrant: a collection inside a locked section may run _drop
        self._lock = threading.RLock()
        self._owners: dict[int, _Owner] = {}
        self.built = 0
        self.leases = 0

    def _entry(self, owner: object) -> _Owner:
        """*owner*'s entry, made on first use; call under the lock."""
        entry = self._owners.get(id(owner))
        if entry is None or entry.ref() is not owner:
            callback = functools.partial(_drop, weakref.ref(self), id(owner))
            entry = self._owners[id(owner)] = _Owner(weakref.ref(owner, callback))
        return entry

    def shared(self, owner: object, build: Callable[[], object]) -> object:
        """The value built once for *owner* and kept with its workspaces."""
        with self._lock:
            entry = self._entry(owner)
            if entry.shared is not None:
                return entry.shared
        value = build()
        with self._lock:
            if entry.shared is None:
                entry.shared = value
            return entry.shared

    @contextmanager
    def lease(
        self, owner: object, key: Hashable, build: Callable[[], object]
    ) -> Iterator[object]:
        with self._lock:
            entry = self._entry(owner)
            stack = entry.free.get(key)
            ws = stack.pop() if stack else None
            self.leases += 1
        if ws is None:
            ws = build()
            with self._lock:
                self.built += 1
        try:
            yield ws
        finally:
            with self._lock:
                entry.free.setdefault(key, []).append(ws)

    def stats(self) -> dict[str, int]:
        with self._lock:
            owners = list(self._owners.values())
            return {
                "built": self.built,
                "leases": self.leases,
                "free": sum(len(v) for e in owners for v in e.free.values()),
                "owners": len(owners),
            }


# ------------------------------------------------------------------ engine
@dataclass(frozen=True)
class EngineWorkspace:
    """Flat accumulator/contribution arenas for the thread-pool engine baseline.

    ``acc[acc_off[s]:acc_off[s+1]]`` is supernode *s*'s ``(n_s, m)``
    accumulator; ``contrib[contrib_off[s]:contrib_off[s+1]]`` its
    ``(n_s - t_s, m)`` contribution block.  Slices of distinct nodes are
    disjoint, so concurrent tasks touch disjoint memory.
    """

    acc_off: np.ndarray
    contrib_off: np.ndarray
    acc: np.ndarray
    contrib: np.ndarray


def build_engine_workspace(plan: ExecPlan, m: int) -> EngineWorkspace:
    """Size an :class:`EngineWorkspace` for *plan* at *m* right-hand sides."""
    ns = len(plan.steps)
    acc_off = np.zeros(ns + 1, dtype=np.int64)
    contrib_off = np.zeros(ns + 1, dtype=np.int64)
    for s, st in enumerate(plan.steps):
        acc_off[s + 1] = acc_off[s] + st.n
        contrib_off[s + 1] = contrib_off[s] + (st.n - st.t)
    return EngineWorkspace(
        acc_off=acc_off,
        contrib_off=contrib_off,
        acc=np.empty((int(acc_off[-1]), m)),
        contrib=np.empty((int(contrib_off[-1]), m)),
    )


# ------------------------------------------------------------------ fused
@dataclass
class FusedWorkspace:
    """Buffers and call tapes for one fused solve at a fixed NRHS.

    The buffers are ``(rows, m)`` float64 blocks.  ``xc`` is
    ``[y | contrib]``: the ``n`` solution rows the sweeps run on, then
    the contribution arena, which persists across levels because parents
    consume their children's blocks from it.  ``scratch`` holds one
    level at a time: forward its ``[acc | tops]``, backward its gathered
    ``[tops | belows]`` and the two products ``[t1 | t2]`` of its tops,
    so it spans the widest level's rows and twice the most tops.

    ``forward`` / ``backward`` are the tapes :mod:`repro.exec.fused`
    compiles over these buffers once, when it builds the workspace: flat
    tuples of ``(call, args)`` pairs, every call pre-bound to its
    operands and its output slice.  ``part_scratch`` is the worker
    thread's scratch when the tapes are bound split, else ``None``.
    """

    xc: np.ndarray       # [y | contrib]: solution rows, then the contribution arena
    scratch: np.ndarray  # one level's [acc | tops] (forward), [gather | t1 | t2] (backward)
    part_scratch: np.ndarray | None = None  # the worker thread's part's own scratch
    forward: tuple = ()
    backward: tuple = ()


def build_fused_workspace(program: LevelProgram, m: int) -> FusedWorkspace:
    """Size a :class:`FusedWorkspace` for *program* at *m* right-hand sides."""
    max_top = max((lvl.top_total for lvl in program.levels), default=0)
    return FusedWorkspace(
        xc=np.empty((program.n + program.contrib_total, m)),
        scratch=np.empty((program.max_acc + 2 * max_top, m)),
    )
