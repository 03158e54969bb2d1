"""SolveService behaviour: transparency, lifecycle, and error paths.

All tests run the service in manual-pump mode on a :class:`FakeClock` —
no dispatcher thread, no sleeps — except where noted.  The headline
invariant is *bitwise transparency*: a request's answer out of any
coalesced batch equals the standalone solve of the same right-hand
side, ``np.array_equal``-exact, by every execution the repo has and
across matrix classes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.numeric.supernodal import cholesky_supernodal
from repro.serve import FakeClock, QueueFullError, SolveService
from repro.sparse.generators import grid2d_laplacian
from repro.symbolic.analyze import analyze

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def factor_grid8(grid8):
    return cholesky_supernodal(analyze(grid8))


def make_service(factor, **kwargs):
    kwargs.setdefault("clock", FakeClock())
    service = SolveService(**kwargs)
    service.register("m", factor)
    return service


# ------------------------------------------------------------ transparency
@pytest.mark.parametrize("backend", ["serial", "threads", "fused"])
@pytest.mark.parametrize("fixture", ["grid8", "grid3d5", "fe9", "rand60"])
def test_bitwise_transparency_across_matrices_and_backends(
    backend, fixture, request, rng
):
    """Coalesced answers are bitwise equal to standalone solves.

    16 width-1 requests land in batches of 6 (full flushes plus a
    drain); every future's result must equal the standalone solve of
    its own right-hand side — by the fused program the service runs, by
    the serial reference and by the thread-pool engine — not merely
    close: identical to the last bit.
    """
    from repro.exec import solve_exec, solve_fused
    from repro.numeric.trisolve import solve_supernodal

    a = request.getfixturevalue(fixture)
    factor = cholesky_supernodal(analyze(a))
    standalone = {
        "serial": solve_supernodal,
        "threads": solve_exec,
        "fused": solve_fused,
    }[backend]

    rhs = [rng.normal(size=a.n) for _ in range(16)]
    with make_service(factor, max_batch=6) as service:
        futures = [service.submit(b, key="m") for b in rhs]
        service.pump_until_idle()
        service.drain()
        for b, fut in zip(rhs, futures):
            got = fut.result(timeout=0)
            assert got.shape == (a.n,)
            assert np.array_equal(got, standalone(factor, b))


def test_transparency_for_multi_column_requests(factor_grid8, rng):
    """Width-w requests batched next to others still slice out bitwise."""
    from repro.exec import solve_fused

    n = factor_grid8.n
    blocks = [rng.normal(size=(n, w)) for w in (1, 3, 2, 1, 4)]
    with make_service(factor_grid8, max_batch=8) as service:
        futures = [service.submit(b, key="m") for b in blocks]
        service.drain()
        for b, fut in zip(blocks, futures):
            got = fut.result(timeout=0)
            assert got.shape == b.shape
            assert np.array_equal(got, solve_fused(factor_grid8, b))


def test_vector_in_vector_out_matrix_in_matrix_out(factor_grid8, rng):
    n = factor_grid8.n
    with make_service(factor_grid8) as service:
        fv = service.submit(rng.normal(size=n), key="m")
        fm = service.submit(rng.normal(size=(n, 1)), key="m")
        service.drain()
        assert fv.result(timeout=0).shape == (n,)
        assert fm.result(timeout=0).shape == (n, 1)


def test_result_is_an_independent_copy(factor_grid8, rng):
    """Mutating one caller's answer cannot corrupt a batch-mate's."""
    n = factor_grid8.n
    with make_service(factor_grid8) as service:
        b = rng.normal(size=n)
        f1 = service.submit(b, key="m")
        f2 = service.submit(b, key="m")
        service.drain()
        x1, x2 = f1.result(timeout=0), f2.result(timeout=0)
        assert np.array_equal(x1, x2)
        x1 += 1.0
        assert not np.array_equal(x1, x2)


# ----------------------------------------------------- solver integration
def test_solver_serving_context_manager(rng):
    """A registered solver answers in the original ordering, bitwise-equal to solve()."""
    a = grid2d_laplacian(10)
    solver = ParallelSparseSolver(a, p=4, spec=cray_t3d()).prepare()
    rhs = [rng.normal(size=a.n) for _ in range(8)]
    with SolveService(clock=FakeClock(), max_batch=4) as service:
        assert service.register("default", solver) == "default"
        futures = [service.submit(b) for b in rhs]
        service.drain()
        for b, fut in zip(rhs, futures):
            got = fut.result(timeout=0)
            x, _ = solver.solve(b, check=False, backend="fused")
            assert np.array_equal(got, x)
    with pytest.raises(RuntimeError, match="closed"):
        service.submit(rhs[0])


def test_serving_requires_prepared_solver():
    a = grid2d_laplacian(6)
    solver = ParallelSparseSolver(a, p=1, spec=cray_t3d())
    with SolveService(clock=FakeClock()) as service:
        with pytest.raises(ValueError, match="prepare"):
            service.register("default", solver)


# ----------------------------------------------------------- registration
def test_register_rejects_duplicate_key(factor_grid8):
    with make_service(factor_grid8) as service:
        with pytest.raises(ValueError, match="already registered"):
            service.register("m", factor_grid8)


def test_register_rejects_wrong_type(factor_grid8):
    with make_service(factor_grid8) as service:
        with pytest.raises(TypeError, match="SupernodalFactor"):
            service.register("x", np.eye(4))


def test_keys_lists_registered_systems(factor_grid8, grid3d5):
    other = cholesky_supernodal(analyze(grid3d5))
    with make_service(factor_grid8) as service:
        service.register("other", other)
        assert service.keys == ("m", "other")


# ------------------------------------------------------------ error paths
def test_submit_unknown_key_raises_keyerror(factor_grid8, rng):
    with make_service(factor_grid8) as service:
        with pytest.raises(KeyError, match="nope"):
            service.submit(rng.normal(size=factor_grid8.n), key="nope")


def test_submit_wrong_length_raises(factor_grid8, rng):
    with make_service(factor_grid8) as service:
        with pytest.raises(ValueError):
            service.submit(rng.normal(size=factor_grid8.n + 1), key="m")


def test_submit_wider_than_max_batch_raises(factor_grid8, rng):
    with make_service(factor_grid8, max_batch=4) as service:
        with pytest.raises(ValueError, match="max_batch"):
            service.submit(rng.normal(size=(factor_grid8.n, 5)), key="m")


def test_submit_after_close_raises(factor_grid8, rng):
    service = make_service(factor_grid8)
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.submit(rng.normal(size=factor_grid8.n), key="m")
    service.close()  # idempotent


def test_backpressure_surfaces_queue_full(factor_grid8, rng):
    with make_service(factor_grid8, max_batch=2, max_queue=2) as service:
        service.submit(rng.normal(size=factor_grid8.n), key="m")
        service.submit(rng.normal(size=factor_grid8.n), key="m")
        with pytest.raises(QueueFullError):
            service.submit(rng.normal(size=factor_grid8.n), key="m")
        assert service.report().rejected == 1
        service.drain()


def test_solve_failure_resolves_every_future_with_the_exception(rng):
    """A poisoned batch fails its requests; the service keeps serving."""
    import dataclasses

    a = grid2d_laplacian(6)
    factor = cholesky_supernodal(analyze(a))
    with make_service(factor, max_batch=4) as service:
        good_entry = service._entries["m"]

        def boom(bmat):
            raise RuntimeError("packed solve exploded")

        service._entries["m"] = dataclasses.replace(good_entry, solve=boom)
        f1 = service.submit(rng.normal(size=a.n), key="m")
        f2 = service.submit(rng.normal(size=a.n), key="m")
        service.drain()
        for fut in (f1, f2):
            with pytest.raises(RuntimeError, match="exploded"):
                fut.result(timeout=0)
        report = service.report()
        assert report.failed == 2 and report.completed == 0
        # The service still works once the backend behaves again.
        service._entries["m"] = good_entry
        ok = service.submit(rng.normal(size=a.n), key="m")
        service.drain()
        assert ok.result(timeout=0).shape == (a.n,)


def test_keyboard_interrupt_escapes_pump_but_errors_land_on_futures(factor_grid8, rng):
    """Only ``Exception`` belongs to the batch; an interrupt belongs to the pumper."""
    import dataclasses

    n = factor_grid8.n
    with make_service(factor_grid8, max_batch=2) as service:
        good_entry = service._entries["m"]

        def raising(exc):
            def solve(bmat):
                raise exc
            return dataclasses.replace(good_entry, solve=solve)

        service._entries["m"] = raising(ValueError("bad batch"))
        futures = [service.submit(rng.normal(size=n), key="m") for _ in range(2)]
        assert service.pump() is not None  # the full batch of 2
        for fut in futures:
            with pytest.raises(ValueError, match="bad batch"):
                fut.result(timeout=0)
        assert service.report().failed == 2

        service._entries["m"] = raising(KeyboardInterrupt())
        for _ in range(2):
            service.submit(rng.normal(size=n), key="m")
        with pytest.raises(KeyboardInterrupt):
            service.pump()
        assert service.report().failed == 2  # the interrupt was not recorded as a failure
        service._entries["m"] = good_entry


def test_cancelled_future_is_skipped_not_solved(factor_grid8, rng):
    with make_service(factor_grid8, max_batch=4) as service:
        f1 = service.submit(rng.normal(size=factor_grid8.n), key="m")
        f2 = service.submit(rng.normal(size=factor_grid8.n), key="m")
        assert f1.cancel()
        service.drain()
        assert f1.cancelled()
        assert f2.result(timeout=0).shape == (factor_grid8.n,)
        report = service.report()
        assert report.cancelled == 1 and report.completed == 1


def test_manual_pump_apis_rejected_on_threaded_service(factor_grid8):
    service = SolveService()  # real clock -> dispatcher thread
    try:
        service.register("m", factor_grid8)
        assert service.manual is False
        for method in (service.pump, service.drain):
            with pytest.raises(RuntimeError, match="manual-pump"):
                method()
    finally:
        service.close()


def test_invalid_backend_and_workers_combinations():
    # The service always runs the fused level program: neither knob exists.
    with pytest.raises(TypeError, match="backend"):
        SolveService(backend="threads")
    with pytest.raises(TypeError, match="workers"):
        SolveService(workers=2)


# ----------------------------------------------------------------- report
def test_report_counts_and_triggers(factor_grid8, rng):
    clk = FakeClock()
    with make_service(
        factor_grid8, clock=clk, max_batch=4, max_wait=1.0, idle_wait=None
    ) as service:
        futures = [
            service.submit(rng.normal(size=factor_grid8.n), key="m") for _ in range(5)
        ]
        assert service.pending_columns == 5
        service.pump_until_idle()  # the full batch of 4
        clk.advance(1.0)
        service.pump_until_idle()  # the deadline batch of 1
        report = service.report()
        assert report.submitted == 5 and report.completed == 5
        assert report.nbatches == 2
        assert report.trigger_counts == {"full": 1, "deadline": 1}
        assert report.total_columns == 5
        assert report.mean_batch_width == 2.5
        assert report.peak_queue_columns == 5
        assert report.wait_max == 1.0
        assert report.columns_per_second > 0
        assert "5 submitted" in report.summary()
        assert all(f.done() for f in futures)


def test_report_snapshot_is_independent(factor_grid8, rng):
    with make_service(factor_grid8) as service:
        service.submit(rng.normal(size=factor_grid8.n), key="m")
        service.drain()
        snap = service.report()
        nbatches = snap.nbatches
        service.submit(rng.normal(size=factor_grid8.n), key="m")
        service.drain()
        assert snap.nbatches == nbatches
        assert service.report().nbatches == nbatches + 1


def test_close_drains_pending_requests(factor_grid8, rng):
    service = make_service(factor_grid8, max_batch=8)
    fut = service.submit(rng.normal(size=factor_grid8.n), key="m")
    service.close()
    assert fut.result(timeout=0).shape == (factor_grid8.n,)
    assert service.report().trigger_counts == {"drain": 1}
