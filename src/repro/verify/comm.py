"""Static SPMD communication linter.

:func:`lint_spmd` walks a rank program (the same generator-coroutine shape
:func:`repro.machine.spmd.run_spmd` executes) through a *timing-free
logical scheduler*: no :class:`~repro.machine.spec.MachineSpec` clocks, no
makespans — only the message-matching semantics documented in
``machine/spmd.py`` (send is buffered, recv blocks on an exact
``(src, tag)`` channel, per-channel delivery is FIFO, barriers require all
ranks).  Because matching is by exact channel and FIFO order, the logical
walk matches the simulator's delivery decisions without charging any time,
so every finding is a *guaranteed* property of the program:

* ``spmd-deadlock-cycle`` — a cycle of ranks each blocked on a receive
  from the next; the runtime :class:`~repro.machine.spmd.DeadlockError`
  would fire on the same program, but only after burning a run.
* ``spmd-unmatched-recv`` — a rank blocked on a channel no live rank can
  ever feed (sender terminated, or starved behind the deadlock).
* ``spmd-tag-mismatch`` — the blocked receiver's source *did* send it
  undelivered messages, just under a different tag (the classic
  protocol-skew bug in pipelined codes).
* ``spmd-unmatched-send`` — a message still buffered when its program
  terminated: sent, never received.  The runtime tolerates these
  silently; statically they are protocol leaks.
* ``spmd-barrier-mismatch`` — ranks waiting at a barrier that other
  (terminated or blocked) ranks will never reach.
* ``spmd-recv-race`` (warning) — a receive matched while more than one
  message was queued on its channel; correctness then depends on
  in-order delivery, which the paper's globally-unique-tag protocol is
  designed to avoid.

Each finding carries the real source location (``file:line``) of the
suspended ``yield``, read off the generator frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.machine.spec import MachineSpec
from repro.machine.spmd import Barrier, Compute, Env, Program, Recv, Send
from repro.util.validation import check_positive
from repro.verify.findings import Report, Severity

#: Channel key — (src, dst, tag), identical to the simulator's mailbox key.
Channel = tuple[int, int, int]


@dataclass
class _SentMessage:
    data: Any
    words: float
    location: str
    seq: int


def _frame_location(gen: Any, fallback: str) -> str:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return fallback
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def lint_spmd(
    program: Program,
    size: int,
    spec: MachineSpec | None = None,
    *,
    max_steps: int = 1_000_000,
) -> Report:
    """Statically check an SPMD rank program for communication bugs.

    The program is walked rank by rank under pure matching semantics; the
    returned :class:`Report` lists every guaranteed communication defect.
    *spec* is only consulted by ``env.compute`` to convert flops to
    seconds and defaults to an arbitrary valid spec — no timing decision
    feeds back into matching.
    """
    check_positive(size, "size")
    spec = spec or MachineSpec()
    env = Env(spec, size)
    report = Report()

    gens: list[Any] = [program(rank, env) for rank in range(size)]
    pending: dict[int, Any] = {}
    blocked: dict[int, Channel] = {}
    blocked_loc: dict[int, str] = {}
    barrier_wait: set[int] = set()
    barrier_loc: dict[int, str] = {}
    channels: dict[Channel, deque[_SentMessage]] = {}
    steps = [0] * size
    total_steps = 0
    seq = 0
    aborted = False

    def loc_of(rank: int) -> str:
        return _frame_location(gens[rank], f"rank {rank}")

    def deliver(rank: int, key: Channel, where: str) -> None:
        """Pop the FIFO head of *key* into *rank*'s resume value."""
        queue = channels[key]
        if len(queue) > 1:
            report.add(
                "spmd-recv-race",
                f"rank {rank} receive on (src={key[0]}, tag={key[2]}) matched "
                f"with {len(queue)} messages queued on the channel; result "
                "depends on in-order delivery",
                location=where,
                severity=Severity.WARNING,
            )
        msg = queue.popleft()
        if not queue:
            del channels[key]
        pending[rank] = msg.data

    def run_rank(rank: int) -> bool:
        """Advance *rank* until it blocks or finishes; True if it progressed."""
        nonlocal total_steps, seq, aborted
        progressed = False
        while gens[rank] is not None and not aborted:
            if total_steps >= max_steps:
                report.add(
                    "spmd-step-limit",
                    f"aborted after {max_steps} actions without quiescence "
                    "(runaway or extremely large program)",
                    location=loc_of(rank),
                )
                aborted = True
                return progressed
            try:
                action = gens[rank].send(pending.pop(rank, None))
            except StopIteration:
                gens[rank] = None
                return True
            where = loc_of(rank)
            steps[rank] += 1
            total_steps += 1
            progressed = True
            if isinstance(action, Compute):
                continue
            if isinstance(action, Send):
                key = (rank, action.dst, action.tag)
                channels.setdefault(key, deque()).append(
                    _SentMessage(data=action.data, words=action.words, location=where, seq=seq)
                )
                seq += 1
                if blocked.get(action.dst) == key:
                    del blocked[action.dst]
                    del blocked_loc[action.dst]
                    deliver(action.dst, key, where)
                continue
            if isinstance(action, Recv):
                key = (action.src, rank, action.tag)
                if channels.get(key):
                    deliver(rank, key, where)
                    continue
                blocked[rank] = key
                blocked_loc[rank] = where
                return progressed
            if isinstance(action, Barrier):
                barrier_wait.add(rank)
                barrier_loc[rank] = where
                if len(barrier_wait) == size:
                    barrier_wait.clear()
                    barrier_loc.clear()
                    continue  # this rank may keep running; others resume next pass
                return progressed
            report.add(
                "spmd-bad-action",
                f"rank {rank} yielded unsupported action {action!r}",
                location=where,
            )
            gens[rank] = None
            return True
        return progressed

    # Round-robin passes until global quiescence.
    made_progress = True
    while made_progress and not aborted:
        made_progress = False
        for rank in range(size):
            if gens[rank] is None or rank in blocked or rank in barrier_wait:
                continue
            if run_rank(rank):
                made_progress = True

    live = [r for r in range(size) if gens[r] is not None]
    finished = [gens[r] is None for r in range(size)]
    if live and not aborted:
        _report_stuck(
            report, size, blocked, blocked_loc, barrier_wait, barrier_loc, channels, finished
        )
    # Messages still buffered after every program stopped moving.
    for (src, dst, tag), queue in sorted(channels.items()):
        for msg in queue:
            report.add(
                "spmd-unmatched-send",
                f"message from rank {src} to rank {dst} with tag {tag} "
                f"({msg.words:g} words) was sent but never received",
                location=msg.location,
            )
    return report


def _report_stuck(
    report: Report,
    size: int,
    blocked: dict[int, Channel],
    blocked_loc: dict[int, str],
    barrier_wait: set[int],
    barrier_loc: dict[int, str],
    channels: dict[Channel, deque[_SentMessage]],
    finished: list[bool],
) -> None:
    """Classify a quiescent-but-unfinished state into findings."""
    # Wait-for graph over recv-blocked ranks: r waits on blocked[r][0].
    on_cycle: set[int] = set()
    color: dict[int, int] = {}  # 0 visiting, 1 done
    for start in sorted(blocked):
        if start in color:
            continue
        path: list[int] = []
        node = start
        while node in blocked and node not in color:
            color[node] = 0
            path.append(node)
            node = blocked[node][0]
            if node in path:
                cycle = path[path.index(node) :]
                on_cycle.update(cycle)
                chain = " -> ".join(str(r) for r in cycle + [cycle[0]])
                detail = "; ".join(
                    f"rank {r} waits on recv(src={blocked[r][0]}, tag={blocked[r][2]})"
                    for r in cycle
                )
                report.add(
                    "spmd-deadlock-cycle",
                    f"guaranteed deadlock: ranks {chain} each blocked on a "
                    f"receive from the next ({detail})",
                    location=blocked_loc[cycle[0]],
                )
                break
        for r in path:
            color[r] = 1

    for rank in sorted(blocked):
        if rank in on_cycle:
            continue
        src, _, tag = blocked[rank]
        if finished[src]:
            why = f"rank {src} terminated without sending it"
        elif src in barrier_wait:
            why = f"rank {src} is stuck at a barrier"
        elif src in blocked:
            why = f"rank {src} is itself blocked (starved behind the stall)"
        else:
            why = f"rank {src} made no further progress"
        report.add(
            "spmd-unmatched-recv",
            f"rank {rank} blocked forever on recv(src={src}, tag={tag}); {why}",
            location=blocked_loc[rank],
        )
        # A pending message on the same (src -> rank) pair under another
        # tag is the tell-tale of a tag-skew bug.
        skewed = sorted(
            t for (s, d, t), q in channels.items() if s == src and d == rank and q
        )
        if skewed:
            report.add(
                "spmd-tag-mismatch",
                f"rank {rank} waits on tag {tag} from rank {src}, but rank "
                f"{src} has undelivered message(s) to it under tag(s) "
                f"{skewed} — likely a tag mismatch",
                location=blocked_loc[rank],
            )

    if barrier_wait:
        absent = [r for r in range(size) if r not in barrier_wait]
        never = [r for r in absent if finished[r] or r in blocked]
        report.add(
            "spmd-barrier-mismatch",
            f"ranks {sorted(barrier_wait)} wait at a barrier that ranks "
            f"{never or absent} will never reach",
            location=next(iter(sorted(barrier_loc.values())), "<barrier>"),
        )
