"""Static SPMD communication linter: rule coverage + runtime agreement."""

from __future__ import annotations

import pytest

from repro.machine.events import TaskGraph, simulate
from repro.machine.presets import cray_t3d
from repro.machine.spmd import DeadlockError, Env, run_spmd
from repro.verify.comm import lint_spmd
from repro.verify.findings import Severity

#: Rules that imply :func:`repro.machine.spmd.run_spmd` would raise
#: :class:`~repro.machine.spmd.DeadlockError` on the same program.
DEADLOCK_RULES = frozenset(
    {"spmd-deadlock-cycle", "spmd-unmatched-recv", "spmd-barrier-mismatch"}
)


# ------------------------------------------------------------ rank programs
def head_to_head(rank: int, env: Env):
    """Both ranks recv before sending: the canonical deadlock cycle."""
    other = 1 - rank
    _ = yield env.recv(other, tag=7)
    yield env.send(other, data=rank, words=1, tag=7)


def ring_deadlock(rank: int, env: Env):
    """Every rank of a 4-ring waits on its left neighbour: one big cycle."""
    left = (rank - 1) % env.size
    right = (rank + 1) % env.size
    _ = yield env.recv(left, tag=0)
    yield env.send(right, data=rank, words=1, tag=0)


def orphan_send(rank: int, env: Env):
    if rank == 0:
        yield env.send(1, data="orphan", words=4, tag=3)
    yield env.compute(seconds=0.0)


def dead_sender(rank: int, env: Env):
    """Rank 1 waits for a message rank 0 never sends."""
    if rank == 0:
        yield env.compute(seconds=0.0)
    else:
        _ = yield env.recv(0, tag=0)


def tag_skew(rank: int, env: Env):
    if rank == 0:
        yield env.send(1, data=42, words=1, tag=1)
    else:
        _ = yield env.recv(0, tag=2)


def racy_channel(rank: int, env: Env):
    if rank == 0:
        yield env.send(1, data="a", words=1, tag=5)
        yield env.send(1, data="b", words=1, tag=5)
        _ = yield env.recv(1, tag=6)
    else:
        first = yield env.recv(0, tag=5)
        _ = yield env.recv(0, tag=5)
        yield env.send(0, data=first, words=1, tag=6)


def barrier_skip(rank: int, env: Env):
    if rank == 0:
        yield env.barrier()
    else:
        yield env.compute(seconds=0.0)


def clean_exchange(rank: int, env: Env):
    """A correct sendrecv pair plus a barrier: zero findings expected."""
    other = 1 - rank
    yield env.send(other, data=rank * 10, words=1, tag=rank)
    got = yield env.recv(other, tag=other)
    assert got == other * 10, "payload must round-trip through the walk"
    yield env.barrier()
    return got


# ------------------------------------------------------------------- linting
def test_clean_program_has_no_findings():
    report = lint_spmd(clean_exchange, 2)
    assert report.ok
    assert len(report) == 0


def test_head_to_head_deadlock_cycle():
    report = lint_spmd(head_to_head, 2)
    assert not report.ok
    assert "spmd-deadlock-cycle" in report.rules()
    (finding,) = [f for f in report if f.rule == "spmd-deadlock-cycle"]
    # The location points at this very test file's blocked yield.
    assert "test_verify_comm.py" in finding.location


def test_ring_deadlock_reports_the_whole_cycle():
    report = lint_spmd(ring_deadlock, 4)
    assert "spmd-deadlock-cycle" in report.rules()
    (finding,) = [f for f in report if f.rule == "spmd-deadlock-cycle"]
    for rank in range(4):
        assert f"rank {rank} waits" in finding.message


def test_orphan_send_is_unmatched():
    report = lint_spmd(orphan_send, 2)
    assert report.rules() == {"spmd-unmatched-send"}
    (finding,) = [f for f in report if f.rule == "spmd-unmatched-send"]
    assert "tag 3" in finding.message


def test_dead_sender_blocks_receiver_forever():
    report = lint_spmd(dead_sender, 2)
    assert "spmd-unmatched-recv" in report.rules()
    (finding,) = [f for f in report if f.rule == "spmd-unmatched-recv"]
    assert "terminated" in finding.message


def test_tag_skew_names_both_tags():
    report = lint_spmd(tag_skew, 2)
    assert "spmd-tag-mismatch" in report.rules()
    (finding,) = [f for f in report if f.rule == "spmd-tag-mismatch"]
    assert "tag 2" in finding.message and "[1]" in finding.message


def test_receive_race_is_warning_only():
    report = lint_spmd(racy_channel, 2)
    assert report.ok, "a race is a warning, not a gate failure"
    assert "spmd-recv-race" in report.rules()
    (finding,) = [f for f in report if f.rule == "spmd-recv-race"]
    assert finding.severity is Severity.WARNING


def test_barrier_skip_mismatch():
    report = lint_spmd(barrier_skip, 2)
    assert "spmd-barrier-mismatch" in report.rules()


def test_step_limit_aborts_runaway_programs():
    def runaway(rank: int, env: Env):
        while True:
            yield env.compute(seconds=0.0)

    report = lint_spmd(runaway, 2, max_steps=100)
    assert "spmd-step-limit" in report.rules()


# ------------------------------------- static linter vs runtime deadlock
@pytest.mark.parametrize(
    "program,size",
    [(head_to_head, 2), (ring_deadlock, 4), (dead_sender, 2), (tag_skew, 2), (barrier_skip, 2)],
    ids=["head-to-head", "ring", "dead-sender", "tag-skew", "barrier-skip"],
)
def test_linter_agrees_with_runtime_deadlock_reporter(program, size):
    """Every program the linter calls deadlocked must raise DeadlockError
    when actually run, and vice versa for the clean program below."""
    report = lint_spmd(program, size)
    assert report.rules() & DEADLOCK_RULES, report.render()
    with pytest.raises(DeadlockError):
        run_spmd(program, size, cray_t3d())


def test_linter_agrees_with_runtime_on_clean_program():
    report = lint_spmd(clean_exchange, 2)
    assert not (report.rules() & DEADLOCK_RULES)
    result = run_spmd(clean_exchange, 2, cray_t3d())
    assert result.returns == [10, 0]


def test_orphan_send_runs_clean_at_runtime_but_lints_dirty():
    """The runtime silently tolerates stranded messages; the linter does not
    — that asymmetry is the point of having a static pass."""
    run_spmd(orphan_send, 2, cray_t3d())  # no exception
    assert not lint_spmd(orphan_send, 2).ok


# -------------------------------------------------------------- task graphs
def test_task_graph_cycle_detected():
    """The event simulator itself refuses a cyclic task graph."""
    g = TaskGraph(nproc=2)
    a = g.add_task(0, 1.0, label="a")
    b = g.add_task(1, 1.0, label="b")
    g.add_edge(a, b)
    g.add_edge(b, a)
    with pytest.raises(RuntimeError, match="cyclic graph"):
        simulate(g, cray_t3d())


def test_task_graph_order_warning():
    """An edge against the id order is legal for the simulator."""
    g = TaskGraph(nproc=1)
    a = g.add_task(0, 1.0)
    b = g.add_task(0, 1.0)
    g.add_edge(b, a)
    r = simulate(g, cray_t3d())
    assert r.start[a] >= r.finish[b]
