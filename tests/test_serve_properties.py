"""Property-based serving tests: random arrival schedules, exact answers.

Hypothesis drives randomly generated request schedules — arbitrary
interleavings of submissions, fake-clock advances, and pump calls —
through a manual-pump :class:`SolveService` and asserts the service's
one contract: **every request is answered exactly once, and the answer
is bitwise identical to the standalone ``backend="fused"`` solve of the
same right-hand side.**  Batch composition varies wildly across
schedules (that is the point); the answers may not.

Everything runs on the fake clock — no threads, no sleeps, no flakes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import solve_fused
from repro.numeric.supernodal import cholesky_supernodal
from repro.serve import FakeClock, QueueFullError, SolveService
from repro.sparse.generators import grid2d_laplacian
from repro.symbolic.analyze import analyze

pytestmark = pytest.mark.serve

_A = grid2d_laplacian(7)
_FACTOR = cholesky_supernodal(analyze(_A))
_N = _A.n

# One schedule step: submit a request of some width, advance the clock,
# or pump whatever is due.  Weights keep schedules submission-heavy so
# batches actually form.
_STEP = st.one_of(
    st.tuples(st.just("submit"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=2.0,
                                            allow_nan=False)),
    st.tuples(st.just("pump"), st.just(0)),
)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(_STEP, min_size=1, max_size=40),
    max_batch=st.integers(min_value=1, max_value=8),
    max_wait=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    idle_frac=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0,
                                             allow_nan=False)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_schedules_answer_every_request_exactly_once_bitwise(
    steps, max_batch, max_wait, idle_frac, seed
):
    rng = np.random.default_rng(seed)
    clk = FakeClock()
    service = SolveService(
        max_batch=max_batch,
        max_wait=max_wait,
        idle_wait=None if idle_frac is None else idle_frac * max_wait,
        max_queue=16 * max_batch,
        clock=clk,
    )
    service.register("m", _FACTOR)
    accepted = []  # (rhs, future) pairs the service took responsibility for
    rejected = 0
    try:
        for op, arg in steps:
            if op == "submit":
                width = min(arg, max_batch)
                b = rng.normal(size=(_N, width))
                rhs = b[:, 0] if width == 1 else b
                try:
                    accepted.append((rhs, service.submit(rhs, key="m")))
                except QueueFullError:
                    rejected += 1
            elif op == "advance":
                clk.advance(arg)
                service.pump_until_idle()
            else:
                service.pump()
    finally:
        service.close()  # drains: every accepted request must resolve

    report = service.report()
    # Exactly once: every accepted future is done, none cancelled/failed.
    assert all(fut.done() for _, fut in accepted)
    assert report.submitted == len(accepted)
    assert report.completed == len(accepted)
    assert report.failed == 0 and report.cancelled == 0
    assert report.rejected == rejected
    assert report.total_columns == sum(
        1 if rhs.ndim == 1 else rhs.shape[1] for rhs, _ in accepted
    )
    assert service.pending_columns == 0

    # Bitwise transparency against the standalone fused solve.
    for rhs, fut in accepted:
        got = fut.result(timeout=0)
        assert got.shape == rhs.shape
        assert np.array_equal(got, solve_fused(_FACTOR, rhs))

    # No batch ever exceeded the width bound.
    assert all(b.columns <= max_batch for b in report.batches)
