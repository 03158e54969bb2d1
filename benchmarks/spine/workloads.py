"""The four workloads and their untraced (end-to-end) runners.

Every runner times calls into the program's public functions from the
outside, verifies each output after its timer has stopped, and returns
the eight end-to-end metrics of ``BENCHMARK.json``.  The names mean the
same thing on every workload; only what counts as "one solve" differs:

============  ==========================================================
cold, steady  one ``ParallelSparseSolver.solve(b, backend="fused")`` call
serve         one ``SolveService.submit(b)`` -> future resolved
============  ==========================================================
"""

from __future__ import annotations

import gc
import queue
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.solver import ParallelSparseSolver
from repro.exec import clear_exec_caches
from repro.experiments.matrices import get_workload
from repro.serve import QueueFullError, SolveService
from repro.sparse.csc import SymCSC
from repro.sparse.generators import fe_mesh_3d, grid2d_laplacian, grid3d_laplacian
from repro.sparse.ops import relative_residual

from .stats import scalar, summarize

#: Acceptance tolerance on ``||Ax - b|| / ||b||`` for every timed output.
RESIDUAL_TOL = 1e-10
#: Right-hand sides per workload pool; ``--seed`` fixes all of them.
POOL_SIZE = 16
#: Pool entries also compared bitwise against the serial supernodal walker.
BITWISE_SAMPLE = 8
#: Every CHECK_EVERY-th operation of a steady loop is a default
#: ``check=True`` solve, so the checked path is measured beside the raw one.
CHECK_EVERY = 4

# Served-traffic shape (phase A open loop, phase B closed loop).
OPEN_RATE_RPS = 100.0
WIDE_SHARE = 0.10
WIDE_COLUMNS = 4
CLOSED_OUTSTANDING = 32
SLO_SECONDS = 0.050
FUTURE_TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``why`` lives in BENCHMARK.json and the README."""

    name: str
    kind: str  # "cold" | "steady" | "serve"
    build: Callable[[], SymCSC]
    smoke_build: Callable[[], SymCSC]
    nrhs: int
    verify: bool  # the solver's ``verify=`` (True is the library default)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("cold_fe3d", "cold",
                 lambda: get_workload("hsct21954").matrix(),
                 lambda: fe_mesh_3d(5, seed=219), nrhs=1, verify=True),
        Workload("steady_3d_nrhs1", "steady",
                 lambda: grid3d_laplacian(16),
                 lambda: grid3d_laplacian(5), nrhs=1, verify=False),
        Workload("steady_2d_nrhs16", "steady",
                 lambda: grid2d_laplacian(96),
                 lambda: grid2d_laplacian(12), nrhs=16, verify=False),
        Workload("serve_3d_mixed", "serve",
                 lambda: grid3d_laplacian(12),
                 lambda: grid3d_laplacian(5), nrhs=1, verify=False),
    ]
}


@dataclass(frozen=True)
class Sizing:
    """How much work one run does; ``--smoke`` shrinks all of it."""

    seconds: float
    smoke: bool

    @property
    def builds(self) -> int:
        """Set-up repetitions (median reported); the least a cold run iterates."""
        return 2 if self.smoke else 3

    @property
    def cold_warm_ops(self) -> int:
        """Warm solves after each cold iteration's first solve."""
        return 8 if self.smoke else 96


def matrix_of(workload: Workload, sizing: Sizing) -> SymCSC:
    return (workload.smoke_build if sizing.smoke else workload.build)()


def seeded(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per use, all fixed by ``--seed``."""
    return np.random.default_rng([seed, stream])


def make_pool(n: int, nrhs: int, seed: int, size: int = POOL_SIZE,
              stream: int = 0) -> list[np.ndarray]:
    """The seeded right-hand sides: vectors for NRHS=1, ``(n, nrhs)`` blocks otherwise."""
    rng = seeded(seed, stream)
    shape = (n,) if nrhs == 1 else (n, nrhs)
    return [rng.standard_normal(shape) for _ in range(size)]


class Checker:
    """Verifies outputs after their timers stop and counts failures.

    The first output seen for a pool entry must pass the residual test
    and then becomes that entry's reference; later outputs pass cheaply
    when bitwise equal to it and otherwise fall back to the residual
    test.  ``strict`` (served responses) demands bitwise equality with a
    reference primed from the standalone fused solve.
    """

    def __init__(self, a: SymCSC, rhs: list[np.ndarray], *, strict: bool = False):
        self.a = a
        self.rhs = rhs
        self.ref: list[np.ndarray | None] = [None] * len(rhs)
        self.strict = strict
        self.attempted = 0
        self.failed = 0

    def ok(self, i: int, x: np.ndarray) -> bool:
        """Count one operation and say whether its output *x* is right."""
        ref = self.ref[i]
        good = ref is not None and np.array_equal(x, ref)
        if not good and not (self.strict and ref is not None):
            good = (x.shape == self.rhs[i].shape
                    and relative_residual(self.a, x, self.rhs[i]) <= RESIDUAL_TOL)
            if good and ref is None:
                self.ref[i] = np.array(x)
        return self.record(good)

    def record(self, good: bool) -> bool:
        """Count one operation whose outcome the caller has already judged."""
        self.attempted += 1
        self.failed += int(not good)
        return good

    def fail(self) -> None:
        """Count an operation that raised, was rejected or was cancelled."""
        self.record(False)

    def attempt(self, fn: Callable, *args, **kwargs):
        """``(seconds, result)`` of one timed call, or ``None`` if it raised.

        This is the operation boundary: the benchmark keeps running,
        reports the traceback and counts the failure.
        """
        try:
            return timed(fn, *args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.fail()
            return None

    def prime(self, solver: ParallelSparseSolver) -> None:
        """Fill every reference from the standalone fused solve, residual-checked."""
        for i, b in enumerate(self.rhs):
            x, _ = solver.solve(b, backend="fused", check=False)
            self.ok(i, x)

    def bitwise_sample(self, solver: ParallelSparseSolver) -> None:
        """Fused must equal the serial supernodal walker bit for bit on a fixed sample."""
        for i, b in enumerate(self.rhs[:BITWISE_SAMPLE]):
            fused, _ = solver.solve(b, backend="fused", check=False)
            serial, _ = solver.solve(b, backend="serial", check=False)
            self.ok(i, fused)
            self.record(np.array_equal(fused, serial))


def timed(fn: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def for_seconds(seconds: float) -> Callable[[int], bool]:
    """Loop condition: at least CHECK_EVERY operations, then until *seconds* have passed."""
    until = time.perf_counter() + seconds
    return lambda i: i < CHECK_EVERY or time.perf_counter() < until


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class SolveSamples:
    """Wall times (seconds) of verified solves; failures never land here."""

    unchecked: list[float] = field(default_factory=list)
    checked: list[float] = field(default_factory=list)

    def run(self, solver: ParallelSparseSolver, checker: Checker, i: int,
            check: bool) -> None:
        done = checker.attempt(solver.solve, checker.rhs[i], backend="fused", check=check)
        if done is not None and checker.ok(i, done[1][0]):
            (self.checked if check else self.unchecked).append(done[0])

    def loop(self, solver: ParallelSparseSolver, checker: Checker,
             more: Callable[[int], bool], check_every: int = CHECK_EVERY) -> None:
        """A closed loop of one caller; every *check_every*-th solve is a checked one."""
        i = 0
        while more(i):
            self.run(solver, checker, i % POOL_SIZE,
                     check=i % check_every == check_every - 1)
            i += 1

    def metrics(self, nrhs: int) -> dict[str, dict]:
        return {
            "solve_ms_p50": summarize([t * 1e3 for t in self.unchecked], "ms", 50),
            "solve_ms_p90": summarize([t * 1e3 for t in self.unchecked], "ms", 90),
            "checked_solve_ms_p50": summarize([t * 1e3 for t in self.checked], "ms", 50),
            "rhs_per_s": scalar(nrhs * len(self.unchecked) / sum(self.unchecked),
                                "1/s", len(self.unchecked)),
        }


@dataclass
class SetupSamples:
    """Per build: matrix build, set-up, and first solve on cold exec caches."""

    build: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    first: list[float] = field(default_factory=list)

    def metrics(self) -> dict[str, dict]:
        tts = [b + s + f for b, s, f in zip(self.build, self.setup, self.first)]
        return {
            "setup_s": summarize(self.setup, "s"),
            "first_solve_s": summarize(self.first, "s"),
            "time_to_solution_s": summarize(tts, "s"),
        }


def build_solver(workload: Workload, sizing: Sizing, samples: SetupSamples):
    """Matrix in -> solver ready, on cold exec caches."""
    clear_exec_caches()
    gc.collect()
    t_build, a = timed(matrix_of, workload, sizing)
    t_setup, solver = timed(
        lambda: ParallelSparseSolver(a, verify=workload.verify).prepare())
    samples.build.append(t_build)
    samples.setup.append(t_setup)
    return solver


def first_solve(solver: ParallelSparseSolver, checker: Checker, i: int,
                samples: SetupSamples) -> None:
    """The default ``solve()`` that pays plan, compile, certify, panels, residual."""
    done = checker.attempt(solver.solve, checker.rhs[i], backend="fused")
    if done is not None and checker.ok(i, done[1][0]):
        samples.first.append(done[0])


def new_checker(workload: Workload, seed: int, sizing: Sizing) -> Checker:
    a = matrix_of(workload, sizing)
    return Checker(a, make_pool(a.n, workload.nrhs, seed))


def finish(metrics: dict[str, dict], checker: Checker) -> dict:
    metrics["peak_rss_mb"] = scalar(peak_rss_mb(), "MB")
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed}


# ------------------------------------------------------------------ cold
def run_cold(workload: Workload, seed: int, sizing: Sizing) -> dict:
    """What a one-shot user pays: every iteration starts from nothing."""
    setup, solves = SetupSamples(), SolveSamples()
    checker = new_checker(workload, seed, sizing)
    until = time.perf_counter() + sizing.seconds
    it = 0
    while it < sizing.builds or time.perf_counter() < until:
        solver = build_solver(workload, sizing, setup)
        first_solve(solver, checker, it % POOL_SIZE, setup)
        solves.loop(solver, checker, lambda i: i < sizing.cold_warm_ops)
        it += 1
    checker.bitwise_sample(solver)
    return finish({**setup.metrics(), **solves.metrics(workload.nrhs)}, checker)


# ------------------------------------------------------------------ steady
def run_steady(workload: Workload, seed: int, sizing: Sizing) -> dict:
    """One caller re-solving against one factor for ``sizing.seconds``."""
    setup, solves = SetupSamples(), SolveSamples()
    checker = new_checker(workload, seed, sizing)
    for it in range(sizing.builds):
        solver = build_solver(workload, sizing, setup)
        first_solve(solver, checker, it, setup)
    gc.collect()
    solves.loop(solver, checker, for_seconds(sizing.seconds))
    checker.bitwise_sample(solver)
    return finish({**setup.metrics(), **solves.metrics(workload.nrhs)}, checker)


# ------------------------------------------------------------------ serve
@dataclass
class Request:
    """One served request's timeline (perf_counter seconds)."""

    index: int        # pool entry
    due: float        # when the schedule said to send it (= sent, closed loop)
    sent: float = 0.0
    accepted: float = 0.0  # submit() returned
    done: float = 0.0      # future resolved (stamped on the dispatcher thread)
    future: object = None
    good: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class ServePhase:
    scheduled: int            # requests the generator tried to send
    requests: list[Request]   # those the service accepted
    wall: float
    batches: list  # this phase's BatchRecords


def serve_pool(n: int, seed: int) -> list[np.ndarray]:
    """POOL_SIZE single columns followed by four WIDE_COLUMNS-wide blocks."""
    return (make_pool(n, 1, seed)
            + make_pool(n, WIDE_COLUMNS, seed, size=POOL_SIZE // 4, stream=1))


def _submit(service: SolveService, checker: Checker, req: Request,
            on_done: Callable[[Request], None] | None = None) -> bool:
    req.sent = time.perf_counter()
    try:
        req.future = service.submit(checker.rhs[req.index])
    except QueueFullError:
        checker.fail()
        return False
    req.accepted = time.perf_counter()

    def stamp(_future, req=req):
        req.done = time.perf_counter()
        if on_done is not None:
            on_done(req)

    req.future.add_done_callback(stamp)
    return True


def _collect(checker: Checker, req: Request) -> None:
    """Verify one resolved request (bitwise against the standalone solve)."""
    try:
        x = req.future.result(timeout=FUTURE_TIMEOUT)
    except Exception:  # failed, cancelled or timed out: a failed operation
        checker.fail()
        return
    finally:
        req.future = None  # do not hold every response until the run ends
    req.good = checker.ok(req.index, x)


def open_loop(service: SolveService, checker: Checker, seed: int,
              seconds: float) -> ServePhase:
    """Seeded Poisson arrivals at OPEN_RATE_RPS; each request timed from its due time."""
    rng = seeded(seed, 2)
    schedule: list[tuple[float, int]] = []
    t = rng.exponential(1.0 / OPEN_RATE_RPS)
    while t < seconds:
        wide = rng.random() < WIDE_SHARE
        index = (POOL_SIZE + int(rng.integers(POOL_SIZE // 4)) if wide
                 else int(rng.integers(POOL_SIZE)))
        schedule.append((t, index))
        t += rng.exponential(1.0 / OPEN_RATE_RPS)
    seen = len(service.report().batches)
    start = time.perf_counter() + 0.01
    requests = []
    for offset, index in schedule:
        req = Request(index=index, due=start + offset)
        delay = req.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if _submit(service, checker, req):
            requests.append(req)
    for req in requests:
        _collect(checker, req)
    wall = max((r.done for r in requests), default=start) - start
    return ServePhase(len(schedule), requests, wall, service.report().batches[seen:])


def closed_loop(service: SolveService, checker: Checker, seconds: float) -> ServePhase:
    """CLOSED_OUTSTANDING single-column requests in flight from one generator thread."""
    finished: queue.SimpleQueue = queue.SimpleQueue()
    seen = len(service.report().batches)
    requests: list[Request] = []
    start = time.perf_counter()
    until = start + seconds
    in_flight = 0

    def send() -> int:
        req = Request(index=len(requests) % POOL_SIZE, due=time.perf_counter())
        requests.append(req)
        return int(_submit(service, checker, req, on_done=finished.put))

    for _ in range(CLOSED_OUTSTANDING):
        in_flight += send()
    while in_flight:
        req = finished.get(timeout=FUTURE_TIMEOUT)
        in_flight -= 1
        _collect(checker, req)
        if time.perf_counter() < until:
            in_flight += send()
    accepted = [r for r in requests if r.accepted]
    wall = max((r.done for r in accepted), default=start) - start
    return ServePhase(len(requests), accepted, wall, service.report().batches[seen:])


def serve_checker(solver: ParallelSparseSolver, seed: int) -> Checker:
    """Strict checker whose references are the standalone fused solves."""
    checker = Checker(solver.a, serve_pool(solver.a.n, seed), strict=True)
    checker.prime(solver)
    return checker


def run_serve(workload: Workload, seed: int, sizing: Sizing) -> dict:
    """The production serving path: real clock, dispatcher thread, one generator.

    ``setup_s`` is ``prepare()`` plus ``register()`` (which warms the plan,
    program, panel and factor caches); ``first_solve_s`` is the first
    request's round trip through the new service.  The last build's
    service then serves phase A (open loop, 55 % of the seconds) and
    phase B (closed loop, 35 %); phase C (10 %) calls the default
    ``check=True`` solve directly on the registered solver.
    """
    setup = SetupSamples()
    checker = service = None
    try:
        for it in range(sizing.builds):
            if service is not None:
                service.close()
            solver = build_solver(workload, sizing, setup)
            service = SolveService()
            t_register, _ = timed(service.register, "default", solver)
            setup.setup[-1] += t_register
            checker = checker or serve_checker(solver, seed)
            b = checker.rhs[it]
            done = checker.attempt(lambda: service.submit(b).result(timeout=FUTURE_TIMEOUT))
            if done is not None and checker.ok(it, done[1]):
                setup.first.append(done[0])
        gc.collect()
        phase_a = open_loop(service, checker, seed, 0.55 * sizing.seconds)
        gc.collect()
        phase_b = closed_loop(service, checker, 0.35 * sizing.seconds)
        gc.collect()
        direct = SolveSamples()
        direct.loop(solver, checker, for_seconds(0.10 * sizing.seconds), check_every=1)
    finally:
        if service is not None:
            service.close()
    checker.bitwise_sample(solver)
    latency_ms = [r.latency * 1e3 for r in phase_a.requests if r.good]
    columns = sum(r.good for r in phase_b.requests)  # the closed loop sends single columns
    metrics = {
        **setup.metrics(),
        "solve_ms_p50": summarize(latency_ms, "ms", 50),
        "solve_ms_p90": summarize(latency_ms, "ms", 90),
        "checked_solve_ms_p50": summarize([t * 1e3 for t in direct.checked], "ms", 50),
        "rhs_per_s": scalar(columns / phase_b.wall, "1/s", columns),
    }
    return finish(metrics, checker)


RUNNERS = {"cold": run_cold, "steady": run_steady, "serve": run_serve}


def run_untraced(workload: Workload, seed: int, sizing: Sizing) -> dict:
    return RUNNERS[workload.kind](workload, seed, sizing)
