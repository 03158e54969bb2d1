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
buffers and never race.

Two workspace shapes live here:

* :class:`EngineWorkspace` — flat per-node accumulator and contribution
  arenas for the thread-pool engine baseline, carved by
  :func:`build_engine_workspace` from an :class:`~repro.exec.plan.ExecPlan` (per-node slices are disjoint,
  so concurrent tasks write without synchronisation);
* :class:`FusedWorkspace` — the scratch of the fused backend, carved by
  :func:`build_fused_workspace` from a
  :class:`~repro.exec.plan.LevelProgram`: one ``[y | contrib]`` block
  (the solution rows, then the whole tree's contribution arena — the
  operand of every level's replay operator) and one backward gather
  buffer the size of the widest level.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

import numpy as np

from repro.exec.plan import ExecPlan, LevelProgram


class WorkspaceArena:
    """Thread-safe lease/return pool of solve workspaces.

    Workspaces are keyed by an arbitrary hashable (the backends use
    ``(kind, id(plan-or-program), nrhs)``); :meth:`lease` pops a free one
    or builds it via the caller's factory, and always returns it to the
    free list afterwards — even when the solve raises, since every buffer
    is fully rewritten by the next lease.  ``built``/``leases`` counters
    make reuse observable for tests and cache stats.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[Hashable, list[object]] = {}
        self.built = 0
        self.leases = 0

    @contextmanager
    def lease(self, key: Hashable, build: Callable[[], object]) -> Iterator[object]:
        with self._lock:
            stack = self._free.get(key)
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
                self._free.setdefault(key, []).append(ws)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "built": self.built,
                "leases": self.leases,
                "free": sum(len(v) for v in self._free.values()),
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
@dataclass(frozen=True)
class FusedWorkspace:
    """Scratch buffers for one fused solve at a fixed NRHS.

    Both are ``(rows, m)`` float64 blocks.  ``xc`` is ``[y | contrib]``:
    the ``n`` solution rows the sweeps run on, then the contribution
    arena, which persists across levels because parents consume their
    children's blocks from it.  ``acc`` is sized at the widest level; the
    backward sweep gathers each level's ``[tops | belows]`` into its
    leading rows (the forward accumulator is the replay product).
    """

    acc: np.ndarray  # widest level's [tops | belows] (backward gather)
    xc: np.ndarray   # [y | contrib]: solution rows, then the contribution arena


def build_fused_workspace(program: LevelProgram, m: int) -> FusedWorkspace:
    """Size a :class:`FusedWorkspace` for *program* at *m* right-hand sides."""
    return FusedWorkspace(
        acc=np.empty((program.max_acc, m)),
        xc=np.empty((program.n + program.contrib_total, m)),
    )
