"""Concurrency soak: many submitter threads against a live dispatcher.

This is the one serve test file that uses real threads and the real
clock — the deterministic fake-clock files prove the flush policy; this
one proves the locking: 8 submitter threads firing 200 requests each
across 2 registered factors, every future resolving, no deadlock, every
leased workspace back in the arena afterwards, and the answers bitwise
stable across independent service runs.

Marked ``slow``: CI runs it in the dedicated ``-m slow`` job.  There is
still no ``time.sleep`` anywhere — synchronisation is futures and
joins, never timing guesses.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exec import prepare_factor, solve_fused
from repro.numeric.supernodal import cholesky_supernodal
from repro.serve import QueueFullError, SolveService
from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian
from repro.symbolic.analyze import analyze

pytestmark = [pytest.mark.serve, pytest.mark.slow]

N_THREADS = 8
N_REQUESTS = 200  # per thread
JOIN_TIMEOUT = 120.0  # generous deadlock bound; normal runs finish in seconds


@pytest.fixture(scope="module")
def factors():
    return {
        "g2": cholesky_supernodal(analyze(grid2d_laplacian(9))),
        "g3": cholesky_supernodal(analyze(grid3d_laplacian(4))),
    }


def _soak_once(factors, seed):
    """One full soak run; returns {(thread, i): solution} for stability checks."""
    service = SolveService(max_batch=16, max_wait=5e-4)
    for key, factor in factors.items():
        service.register(key, factor)

    results = {}
    errors = []
    barrier = threading.Barrier(N_THREADS)

    def submitter(tid):
        rng = np.random.default_rng(seed + tid)
        keys = sorted(factors)
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            futures = []
            for i in range(N_REQUESTS):
                key = keys[(tid + i) % len(keys)]
                b = rng.normal(size=factors[key].n)
                while True:
                    try:
                        futures.append((i, key, b, service.submit(b, key=key)))
                        break
                    except QueueFullError:
                        # Backpressure: yield to the dispatcher and retry.
                        # result() blocks until a batch flushes, which is
                        # exactly the signal that capacity freed up.
                        if futures:
                            futures[-1][3].result(timeout=JOIN_TIMEOUT)
            for i, key, b, fut in futures:
                results[(tid, i)] = (key, b, fut.result(timeout=JOIN_TIMEOUT))
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append((tid, exc))

    threads = [
        threading.Thread(target=submitter, args=(tid,), name=f"submit-{tid}")
        for tid in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    alive = [t.name for t in threads if t.is_alive()]
    service.close()
    assert not alive, f"submitter threads deadlocked: {alive}"
    assert not errors, f"submitter threads raised: {errors}"
    return service, results


def test_soak_all_futures_resolve_and_arena_balances(factors):
    service, results = _soak_once(factors, seed=100)
    assert len(results) == N_THREADS * N_REQUESTS

    report = service.report()
    assert report.completed == N_THREADS * N_REQUESTS
    assert report.failed == 0 and report.cancelled == 0
    assert report.total_columns == N_THREADS * N_REQUESTS
    assert set(b.key for b in report.batches) == {"g2", "g3"}
    # Under concurrent load the coalescer must actually coalesce.
    assert report.mean_batch_width > 1.0

    # Every leased workspace is back on the free list: the arena built
    # some workspaces, leased one per batch, and leaked none.
    for factor in factors.values():
        stats = prepare_factor(factor).arena.stats()
        assert stats["leases"] >= 1
        assert stats["free"] == stats["built"], f"leaked workspaces: {stats}"

    # Spot-check transparency on a sample (full check is the fast tests' job).
    for (tid, i) in list(results)[:: max(1, len(results) // 37)]:
        key, b, got = results[(tid, i)]
        assert np.array_equal(got, solve_fused(factors[key], b))


def test_soak_answers_stable_across_runs(factors):
    """Same seeds, two independent services: bitwise-identical answers.

    Batch composition differs run to run (real-clock scheduling), but
    column-slice invariance means the answers cannot.
    """
    _, first = _soak_once(factors, seed=7)
    _, second = _soak_once(factors, seed=7)
    assert first.keys() == second.keys()
    for k in first:
        key1, b1, x1 = first[k]
        key2, b2, x2 = second[k]
        assert key1 == key2
        assert np.array_equal(b1, b2)
        assert np.array_equal(x1, x2)
