"""Deterministic fake-clock tests of the coalescer's flush policy.

Every timing decision here happens at an exact simulated instant — the
tests advance a :class:`FakeClock` by hand and ask the coalescer what is
due.  There is not a single ``time.sleep`` (or wall-clock dependence of
any kind) in this file; the flush policy is tested as the pure state
machine it is.
"""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np
import pytest

from repro.serve import Coalescer, FakeClock, QueueFullError, SolveRequest

pytestmark = pytest.mark.serve


def make_request(key="k", width=1, n=4, seq=0):
    return SolveRequest(
        key=key,
        rhs=np.zeros((n, width)),
        squeeze=width == 1,
        future=Future(),
        seq=seq,
    )


def make_coalescer(clk, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait", 1.0)
    kwargs.setdefault("idle_wait", None)
    return Coalescer(clock=clk, **kwargs)


# --------------------------------------------------------------- full rule
def test_full_flush_at_exactly_max_batch_columns():
    clk = FakeClock()
    c = make_coalescer(clk, max_batch=4)
    for i in range(3):
        c.offer(make_request(seq=i))
        assert c.take_ready() is None, "must not flush below max_batch"
    c.offer(make_request(seq=3))
    batch = c.take_ready()
    assert batch is not None
    assert batch.trigger == "full"
    assert batch.columns == 4
    assert [r.seq for r in batch.requests] == [0, 1, 2, 3], "FIFO order"
    assert c.empty


def test_full_flush_counts_columns_not_requests():
    clk = FakeClock()
    c = make_coalescer(clk, max_batch=4)
    c.offer(make_request(width=3, seq=0))
    assert c.take_ready() is None
    c.offer(make_request(width=2, seq=1))  # 5 columns pending >= 4
    batch = c.take_ready()
    assert batch.trigger == "full"
    # A request's columns never split: the width-2 request does not fit
    # next to the width-3 one, so it stays queued for the next batch.
    assert [r.seq for r in batch.requests] == [0]
    assert c.pending_columns == 2


def test_wide_request_is_never_split_across_batches():
    clk = FakeClock()
    c = make_coalescer(clk, max_batch=4)
    c.offer(make_request(width=2, seq=0))
    c.offer(make_request(width=2, seq=1))
    c.offer(make_request(width=2, seq=2))
    batch = c.take_ready()
    assert batch.columns == 4 and [r.seq for r in batch.requests] == [0, 1]
    assert c.pending_columns == 2


# ----------------------------------------------------------- deadline rule
def test_deadline_flush_fires_exactly_at_max_wait():
    clk = FakeClock()
    c = make_coalescer(clk, max_wait=1.0)
    c.offer(make_request(seq=0))
    clk.advance(0.999)
    assert c.take_ready() is None, "one tick early: not due"
    clk.advance(0.001)
    batch = c.take_ready()
    assert batch is not None and batch.trigger == "deadline"
    assert batch.waits == [1.0]


def test_deadline_is_oldest_request_not_newest():
    clk = FakeClock()
    c = make_coalescer(clk, max_wait=1.0)
    c.offer(make_request(seq=0))
    clk.advance(0.9)
    c.offer(make_request(seq=1))  # young, but rides the old one's deadline
    clk.advance(0.1)
    batch = c.take_ready()
    assert batch.trigger == "deadline"
    assert [r.seq for r in batch.requests] == [0, 1]
    assert batch.waits == [1.0, pytest.approx(0.1)]


# --------------------------------------------------------------- idle rule
def test_idle_flush_fires_on_arrival_gap():
    clk = FakeClock()
    c = make_coalescer(clk, max_wait=1.0, idle_wait=0.25)
    c.offer(make_request(seq=0))
    clk.advance(0.25)
    batch = c.take_ready()
    assert batch is not None and batch.trigger == "idle"


def test_arrivals_push_the_idle_deadline_back():
    clk = FakeClock()
    c = make_coalescer(clk, max_wait=10.0, idle_wait=0.25)
    c.offer(make_request(seq=0))
    clk.advance(0.2)
    c.offer(make_request(seq=1))  # gap resets: stream is not idle
    clk.advance(0.2)
    assert c.take_ready() is None
    clk.advance(0.05)
    batch = c.take_ready()
    assert batch.trigger == "idle" and len(batch.requests) == 2


def test_default_idle_wait_flushes_after_half_a_millisecond():
    clk = FakeClock()
    c = Coalescer(clock=clk, max_batch=4)
    c.offer(make_request(seq=0))
    clk.advance(0.4e-3)
    assert c.take_ready() is None
    clk.advance(0.2e-3)  # past 0.5 ms of quiet, well before the 2 ms deadline
    assert c.take_ready().trigger == "idle"


def test_idle_none_disables_the_rule():
    clk = FakeClock()
    c = make_coalescer(clk, max_wait=1.0, idle_wait=None)
    c.offer(make_request(seq=0))
    clk.advance(0.999)
    assert c.take_ready() is None, "only the deadline can fire"
    clk.advance(0.001)
    assert c.take_ready().trigger == "deadline"


def test_idle_wins_tie_with_deadline():
    clk = FakeClock()
    c = make_coalescer(clk, max_wait=1.0, idle_wait=1.0)
    c.offer(make_request(seq=0))
    clk.advance(5.0)
    assert c.take_ready().trigger == "idle"


# ------------------------------------------------------------ backpressure
def test_backpressure_rejects_past_max_queue_columns():
    clk = FakeClock()
    c = make_coalescer(clk, max_batch=2, max_queue=3)
    c.offer(make_request(seq=0, width=2))
    c.offer(make_request(seq=1))
    with pytest.raises(QueueFullError):
        c.offer(make_request(seq=2))
    assert c.rejected == 1 and c.offered == 2
    # Draining frees capacity again.
    assert c.take_drain() is not None
    assert c.take_drain() is not None
    c.offer(make_request(seq=3))
    assert c.pending_columns == 1


def test_over_wide_request_is_a_value_error_not_backpressure():
    c = make_coalescer(FakeClock(), max_batch=4)
    with pytest.raises(ValueError, match="max_batch"):
        c.offer(make_request(width=5))
    assert c.rejected == 0


# ------------------------------------------------------------------ drain
def test_drain_flushes_everything_regardless_of_deadlines():
    clk = FakeClock()
    c = make_coalescer(clk, max_batch=4, max_wait=100.0)
    for i in range(6):
        c.offer(make_request(seq=i))
    assert c.take_ready().trigger == "full"
    batch = c.take_drain()
    assert batch.trigger == "drain" and len(batch.requests) == 2
    assert c.take_drain() is None
    assert c.empty


def test_drain_respects_max_batch_width():
    c = make_coalescer(FakeClock(), max_batch=2, max_queue=10)
    for i in range(5):
        c.offer(make_request(seq=i))
    widths = []
    while (b := c.take_drain()) is not None:
        widths.append(b.columns)
    assert widths == [2, 2, 1]


# ----------------------------------------------------------- multiple keys
def test_keys_batch_independently():
    clk = FakeClock()
    c = make_coalescer(clk, max_batch=2)
    c.offer(make_request(key="a", seq=0))
    c.offer(make_request(key="b", seq=1))
    assert c.take_ready() is None, "two keys with one column each: no batch"
    c.offer(make_request(key="b", seq=2))
    batch = c.take_ready()
    assert batch.key == "b" and [r.seq for r in batch.requests] == [1, 2]
    assert c.pending_columns == 1


def test_full_queues_flush_before_due_queues():
    clk = FakeClock()
    c = make_coalescer(clk, max_batch=2, max_wait=0.5)
    c.offer(make_request(key="a", seq=0))
    clk.advance(1.0)  # "a" is long past its deadline
    c.offer(make_request(key="b", seq=1))
    c.offer(make_request(key="b", seq=2))  # "b" is full
    assert c.take_ready().key == "b"
    assert c.take_ready().key == "a"


# ---------------------------------------------------------- next_deadline
def test_next_deadline_empty_is_none():
    c = make_coalescer(FakeClock())
    assert c.next_deadline() is None


def test_next_deadline_is_min_of_deadline_and_idle():
    clk = FakeClock(start=10.0)
    c = make_coalescer(clk, max_wait=1.0, idle_wait=0.25)
    c.offer(make_request(seq=0))
    assert c.next_deadline() == pytest.approx(10.25)
    c2 = make_coalescer(clk, max_wait=1.0, idle_wait=None)
    c2.offer(make_request(seq=0))
    assert c2.next_deadline() == pytest.approx(11.0)


def test_next_deadline_full_queue_is_now():
    clk = FakeClock(start=3.0)
    c = make_coalescer(clk, max_batch=2)
    c.offer(make_request(seq=0))
    c.offer(make_request(seq=1))
    assert c.next_deadline() == 3.0


# ------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_batch": 0},
        {"max_wait": -0.1},
        {"idle_wait": -0.5},
        {"max_batch": 8, "max_queue": 4},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        make_coalescer(FakeClock(), **kwargs)


def test_fake_clock_is_monotonic_and_refuses_to_wait():
    import threading

    clk = FakeClock(start=2.0)
    assert clk.now() == 2.0
    assert clk.advance(0.5) == 2.5
    with pytest.raises(ValueError):
        clk.advance(-0.1)
    with pytest.raises(RuntimeError, match="manual-pump"):
        clk.wait(threading.Condition(), 1.0)
    assert clk.drives_threads is False
