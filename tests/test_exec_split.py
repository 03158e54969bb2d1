"""The two-way split: the fused sweeps' two top subtrees on two threads.

Under test:

* the split the compiler records is two consecutive id ranges of whole
  subtrees, and a tree without a fork (a path) has none;
* split solves are bitwise the serial walker's, and every column of a
  wide solve is its standalone one-column solve, at widths on both sides
  of ``SPLIT_MIN_WIDTH``, on the gate battery, random patterns, a
  forest, a tree whose top is a chain and a path;
* served answers, concurrent solves and a failing part: the service's
  wide batches are standalone answers, four threads on one factor get
  the serial bits, a second split solve in flight keeps both its parts
  on its own thread, and a part that raises is joined before its lease
  returns;
* the one-part tape is today's tape call for call, and the worker
  thread starts lazily, never at one column, afresh in a forked child.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.core.solver import DEFAULT_RELAX
from repro.exec import (
    backward_fused,
    clear_exec_caches,
    forward_fused,
    fused_panels_for,
    prepare_factor,
    program_for,
    solve_fused,
)
from repro.exec import fused
from repro.exec.arena import build_fused_workspace
from repro.exec.plan import part_rows
from repro.numeric.supernodal import cholesky_supernodal
from repro.numeric.trisolve import backward_supernodal, forward_supernodal, solve_supernodal
from repro.serve import FakeClock, SolveService
from repro.sparse.build import from_triplets
from repro.sparse.generators import fe_mesh_3d, grid2d_laplacian, grid3d_laplacian, random_spd
from repro.symbolic.analyze import analyze

WIDTHS = (1, 7, 8, 16, 17)


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    """Every width at or above the rule splits, whatever this host has."""
    monkeypatch.setattr(fused, "_usable_cpus", lambda: 2)
    clear_exec_caches()
    yield
    clear_exec_caches()


def _union(*mats):
    """The block-diagonal matrix of *mats*: a forest, one tree per block."""
    lower = sparse.tril(sparse.block_diag([a.to_scipy() for a in mats])).tocoo()
    return from_triplets(lower.shape[0], lower.row, lower.col, lower.data)


def _chain_top():
    """Two 4 x 4 grids joined by a three-node bridge, eliminated last.

    Under the natural order the grids' chains meet at the bridge's first
    node, and its last two form the root supernode, whose one child is
    that first node: a fork under a chain.
    """
    grid = sparse.tril(grid2d_laplacian(4).to_scipy()).tocoo()
    rows = np.concatenate([grid.row, grid.row + 16, [15, 31, 32, 33]])
    cols = np.concatenate([grid.col, grid.col + 16, [32, 32, 33, 34]])
    vals = np.concatenate([grid.data, grid.data, [-1.0] * 4])
    rows, cols = np.append(rows, [32, 33, 34]), np.append(cols, [32, 33, 34])
    return from_triplets(35, rows, cols, np.append(vals, [5.0, 5.0, 5.0]))


def _path(n=30):
    """Tridiagonal: under the natural order its tree is a path."""
    i = np.arange(n - 1)
    return from_triplets(n, np.concatenate([i + 1, np.arange(n)]),
                         np.concatenate([i, np.arange(n)]),
                         np.concatenate([-np.ones(n - 1), 3.0 * np.ones(n)]))


# the gate's schedule battery, each unrelaxed and at the solver's default
_GATE = {
    "grid2d(8)": lambda: grid2d_laplacian(8),
    "grid2d(12)": lambda: grid2d_laplacian(12),
    "grid3d(4)": lambda: grid3d_laplacian(4),
    "fe3d(5)": lambda: fe_mesh_3d(5, seed=219),
    "fe3d(12)": lambda: fe_mesh_3d(12, seed=219),
}
CASES = {
    **{(name, relax): (make, "nested_dissection")
       for name, make in _GATE.items() for relax in (0, DEFAULT_RELAX)},
    ("random_spd(80)", 0): (lambda: random_spd(80, density=0.06, seed=5), "nested_dissection"),
    ("forest", 0): (lambda: _union(grid2d_laplacian(5), grid3d_laplacian(3), grid2d_laplacian(3)),
                    "nested_dissection"),
    ("chain-top", 0): (_chain_top, "natural"),
    ("path", 0): (_path, "natural"),
}


@pytest.fixture(scope="module", params=list(CASES), ids=[f"{n}-relax{r}" for n, r in CASES])
def factor(request):
    (_, relax), (make, method) = request.param, CASES[request.param]
    return cholesky_supernodal(analyze(make(), method=method, relax=relax))


def _rhs(n: int, m: int, seed: int) -> np.ndarray:
    """Normal entries with a quarter of them -0.0: signed zeros must survive."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, m))
    b[rng.random(b.shape) < 0.25] = -0.0
    return b


@contextmanager
def _counting_forks(monkeypatch):
    """Count the forks the sweeps make."""
    forks = []
    real = fused._fork

    def fork(mine, theirs):
        forks.append(1)
        real(mine, theirs)

    monkeypatch.setattr(fused, "_fork", fork)
    yield forks


# ------------------------------------------------------------- the split
class TestSplitParts:
    def test_parts_are_two_consecutive_ranges_of_whole_subtrees(self, factor):
        stree, program = factor.stree, program_for(factor.stree)
        if not program.parts:
            return
        (lo_a, hi_a), (lo_b, hi_b) = program.parts
        assert lo_a == 0 < hi_a == lo_b < hi_b <= stree.nsuper
        part = np.full(stree.nsuper, -1)
        part[lo_a:hi_a], part[lo_b:hi_b] = 0, 1
        kids = np.flatnonzero(stree.parent >= 0)
        inside = part[stree.parent[kids]] >= 0
        assert np.array_equal(part[kids][inside], part[stree.parent[kids]][inside])

    def test_the_forest_forks_at_its_roots_and_has_no_top(self):
        stree = analyze(_union(grid2d_laplacian(5), grid3d_laplacian(3))).stree
        (_, _), (_, hi) = program_for(stree).parts
        assert hi == stree.nsuper

    def test_a_chain_top_stays_above_the_fork(self):
        stree = analyze(_chain_top(), method="natural").stree
        root = stree.nsuper - 1
        assert len(stree.children[root]) == 1
        (_, _), (_, hi) = program_for(stree).parts
        assert hi == stree.nsuper - 2  # the fork and the root are the top

    def test_a_path_does_not_split(self):
        program = program_for(analyze(_path(), method="natural").stree)
        assert program.parts == ()

    def test_each_part_owns_one_run_of_tops_and_one_of_belows(self, factor):
        program = program_for(factor.stree)
        ranges = [*program.parts, (max((h for _, h in program.parts), default=0),
                                   program.nsuper)]
        for lvl, *rows in zip(program.levels, *(part_rows(program, *r) for r in ranges)):
            tops = [t for ta, tb, _, _ in rows for t in range(ta, tb)]
            belows = [b for _, _, ba, bb in rows for b in range(ba, bb)]
            assert tops == list(range(lvl.top_total))
            assert belows == list(range(lvl.top_total, lvl.size))


# ----------------------------------------------------------- the answers
class TestSplitAnswers:
    def test_split_solves_are_the_serial_bits(self, factor, monkeypatch):
        split = bool(program_for(factor.stree).parts)
        with _counting_forks(monkeypatch) as forks:
            for m in WIDTHS:
                b = _rhs(factor.n, m, seed=m)
                before = len(forks)
                assert solve_fused(factor, b).tobytes() == solve_supernodal(factor, b).tobytes()
                assert (forward_fused(factor, b).tobytes()
                        == forward_supernodal(factor, b).tobytes())
                assert (backward_fused(factor, b).tobytes()
                        == backward_supernodal(factor, b).tobytes())
                wide = split and m >= fused.SPLIT_MIN_WIDTH
                assert len(forks) - before == (4 if wide else 0), m

    def test_every_column_is_its_standalone_solve(self, factor):
        b = _rhs(factor.n, max(WIDTHS), seed=3)
        alone = [solve_fused(factor, b[:, j]).tobytes() for j in range(b.shape[1])]
        for m in WIDTHS:
            x = solve_fused(factor, b[:, :m])
            for j in range(m):
                assert np.ascontiguousarray(x[:, j]).tobytes() == alone[j], (m, j)

    def test_one_usable_cpu_does_not_split(self, monkeypatch):
        factor = cholesky_supernodal(analyze(grid2d_laplacian(12)))
        monkeypatch.setattr(fused, "_usable_cpus", lambda: 1)
        with _counting_forks(monkeypatch) as forks:
            b = _rhs(factor.n, 16, seed=1)
            assert solve_fused(factor, b).tobytes() == solve_supernodal(factor, b).tobytes()
        assert forks == []


class TestSplitUnderLoad:
    @pytest.fixture()
    def grid(self):
        return cholesky_supernodal(analyze(grid2d_laplacian(12), relax=DEFAULT_RELAX))

    def test_served_wide_batches_are_standalone_answers(self, grid, monkeypatch):
        service = SolveService(max_batch=16, max_wait=1.0, clock=FakeClock())
        service.register("f", grid)
        requests = [_rhs(grid.n, 1, seed=s)[:, 0] for s in range(32)]
        with _counting_forks(monkeypatch) as forks:
            try:
                futures = [service.submit(b, key="f") for b in requests]
                service.drain()
            finally:
                service.close()
        assert forks, "the 16-wide batches did not split"
        for b, fut in zip(requests, futures):
            assert fut.result(timeout=0).tobytes() == solve_fused(grid, b).tobytes()

    def test_four_threads_on_one_factor_get_the_serial_bits(self, grid):
        blocks = [_rhs(grid.n, 16, seed=s) for s in range(4)]
        expect = [solve_supernodal(grid, b).tobytes() for b in blocks]
        wrong = []

        def work(k):
            for _ in range(15):
                if solve_fused(grid, blocks[k]).tobytes() != expect[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong
        assert fused._in_flight == 0, "a lost update left a solve counted in flight"
        stats = prepare_factor(grid).arena.stats()
        assert stats["free"] == stats["built"]

    @staticmethod
    def _rigged(monkeypatch, mine, theirs):
        """Bind every workspace's forward fork to the tapes *mine* and *theirs*."""
        real = fused._bind

        def bind(ws, program, panels, parts=()):
            real(ws, program, panels, parts)
            ws.forward = tuple((call, (mine, theirs)) if call is fused._fork else (call, args)
                               for call, args in ws.forward)
            return ws

        monkeypatch.setattr(fused, "_bind", bind)

    def test_a_raising_part_is_joined_before_the_lease_returns(self, grid, monkeypatch):
        started, finished = threading.Event(), []

        def boom():
            raise RuntimeError("part failed")

        # the caller's part fails once the worker is busy with its own
        mine = ((started.wait, (10.0,)), (boom, ()))
        theirs = ((started.set, ()), (time.sleep, (0.05,)), (finished.append, (True,)))
        self._rigged(monkeypatch, mine, theirs)
        with pytest.raises(RuntimeError, match="part failed"):
            solve_fused(grid, _rhs(grid.n, 16, seed=2))
        assert finished == [True], "the lease returned while the worker was still writing"
        stats = prepare_factor(grid).arena.stats()
        assert stats["free"] == stats["built"] == 1

    def test_the_workers_failure_reaches_the_caller(self, grid, monkeypatch):
        def boom():
            raise ValueError("worker part failed")

        ran = threading.Event()
        # the caller waits for the worker to take its part, so the worker raises
        self._rigged(monkeypatch, ((ran.wait, (10.0,)),), ((ran.set, ()), (boom, ())))
        with pytest.raises(ValueError, match="worker part failed"):
            solve_fused(grid, _rhs(grid.n, 16, seed=2))
        stats = prepare_factor(grid).arena.stats()
        assert stats["free"] == stats["built"] == 1

    def test_the_worker_takes_no_job_while_another_split_sweep_is_in_flight(
        self, grid, monkeypatch
    ):
        handed = []
        real = fused._worker
        monkeypatch.setattr(fused, "_worker", lambda: handed.append(1) or real())
        b = _rhs(grid.n, 16, seed=5)
        with _counting_forks(monkeypatch) as forks, fused._lease(grid, None, 16) as first, \
                fused._lease(grid, None, 16) as second:
            assert first.part_scratch is not None, "a solve alone in flight is not split"
            assert second.part_scratch is None, "a second solve in flight got split tapes"
            x = solve_fused(grid, b)  # a third, on the one-part tapes
            assert not forks
            first.xc[: grid.n] = b
            fused._sweep(first.forward)  # the first's sweep, with others in flight
            assert forks == [1] and not handed, "a crowded split sweep handed its part over"
            assert first.xc[: grid.n].tobytes() == forward_supernodal(grid, b).tobytes()
        assert x.tobytes() == solve_supernodal(grid, b).tobytes()
        assert fused._in_flight == 0
        assert solve_fused(grid, b).tobytes() == x.tobytes()
        assert handed, "a split solve alone in flight kept both parts"
        with fused._lease(grid, None, 7):  # narrower than the rule: not counted
            assert fused._in_flight == 0

    def test_a_busy_worker_leaves_both_parts_to_the_caller(self, grid):
        b = _rhs(grid.n, 16, seed=4)
        assert fused._free.acquire(timeout=10)  # the worker is another caller's
        try:
            x = solve_fused(grid, b)
        finally:
            fused._free.release()
        assert x.tobytes() == solve_supernodal(grid, b).tobytes()


# ---------------------------------------------------------- the tapes
def _todays_tapes(ws, program, panels):
    """The single-thread tapes as one level after another binds them."""
    def matvec(op, x, y):
        rows, cols = op.shape
        m = x.shape[1]
        name = op.format + ("_matvec" if m == 1 else "_matvecs")
        head = (rows, cols) if m == 1 else (rows, cols, m)
        return getattr(_sparsetools, name), (
            *head, op.indptr, op.indices, op.data, x.reshape(-1), y.reshape(-1))

    xc, scratch, n = ws.xc, ws.scratch, program.n
    x = xc[:n]
    forward = [(xc[n:].fill, (0.0,))]
    for lvl, diag, rect in zip(program.levels, panels.diag, panels.rect):
        size, tt = lvl.size, lvl.top_total
        acc, tops = scratch[:size], scratch[size : size + tt]
        forward += [(scratch[: size + tt].fill, (0.0,)), matvec(lvl.replay, xc, acc),
                    matvec(diag, acc[:tt], tops)]
        if size > tt:
            contrib = xc[n + lvl.arena_lo : n + lvl.arena_lo + size - tt]
            forward += [matvec(rect, tops, contrib), (np.subtract, (acc[tt:], contrib, contrib))]
        forward.append((xc.__setitem__, (lvl.gather_rows[:tt], tops)))
    backward = []
    for lvl, diag_t, rect_t in zip(
        reversed(program.levels), reversed(panels.diag_t), reversed(panels.rect_t)
    ):
        size, tt = lvl.size, lvl.top_total
        acc, t1, t2 = scratch[:size], scratch[size : size + tt], scratch[size + tt : size + 2 * tt]
        backward += [(x.take, (lvl.gather_rows, 0, acc, "clip")),
                     (scratch[size : size + 2 * tt].fill, (0.0,))]
        if size > tt:
            backward += [matvec(rect_t, acc[tt:], t1), (np.subtract, (acc[:tt], t1, acc[:tt]))]
        backward += [matvec(diag_t, acc[:tt], t2), (x.__setitem__, (lvl.gather_rows[:tt], t2))]
    return forward, backward


def _key(obj):
    """What a call or argument is: the memory an array names, a method's array."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.__array_interface__["data"][0], obj.shape, obj.strides,
                obj.dtype.str)
    owner = getattr(obj, "__self__", None)
    if isinstance(owner, np.ndarray):
        return ("method", obj.__name__, _key(owner))
    return ("value", obj)


def _keys(tape):
    """Each call, its arguments, and which arguments are one object (numpy
    takes a faster path when an output *is* an input, not a second view)."""
    return [(_key(call), tuple(_key(a) for a in args),
             tuple(next(i for i, b in enumerate(args) if b is a)
                   if isinstance(a, np.ndarray) else None for a in args))
            for call, args in tape]


@pytest.mark.parametrize("m", [1, 16])
def test_the_one_part_tape_is_todays_call_for_call(factor, m):
    program = program_for(factor.stree)
    panels = fused_panels_for(factor)
    ws = fused._bind(build_fused_workspace(program, m), program, panels)
    forward, backward = _todays_tapes(ws, program, panels)
    assert _keys(ws.forward) == _keys(forward)
    assert _keys(ws.backward) == _keys(backward)


def test_the_split_tapes_fork_once_each_way(factor):
    program = program_for(factor.stree)
    if not program.parts:
        return
    ws = build_fused_workspace(program, 16)
    fused._bind(ws, program, fused_panels_for(factor), program.parts)
    assert [call for call, _ in ws.forward].count(fused._fork) == 1
    assert ws.backward[-1][0] is fused._fork
    assert ws.forward[1][0] is fused._fork  # after the arena's fill, before the top


def test_the_workers_part_gets_only_the_scratch_rows_it_uses(factor):
    program = program_for(factor.stree)
    panels = fused_panels_for(factor)
    if program.parts:
        ws = fused._bind(build_fused_workspace(program, 16), program, panels, program.parts)
        used = [r for r in part_rows(program, *program.parts[1]) if r[1] > r[0]]
        assert ws.part_scratch.shape == (max(fused._scratch_rows(*r) for r in used), 16)
        assert ws.part_scratch.shape[0] < ws.scratch.shape[0]
    # a block one row short of what a level uses is refused, never overrun
    ws = build_fused_workspace(program, 2)
    need = max(fused._scratch_rows(*r) for r in part_rows(program, 0, program.nsuper))
    with pytest.raises(ValueError, match="too short"):
        fused._part_tapes(program, panels, ws.xc, ws.scratch[: need - 1], 0, program.nsuper)


# ---------------------------------------------------------- the worker
def test_one_column_never_starts_the_worker(monkeypatch):
    factor = cholesky_supernodal(analyze(grid2d_laplacian(12)))
    monkeypatch.setattr(fused, "_jobs", None)
    for _ in range(3):
        solve_fused(factor, _rhs(factor.n, 1, seed=0))
    assert fused._jobs is None


_FORK_SCRIPT = textwrap.dedent("""
    import os, threading
    import numpy as np
    from repro.exec import fused, solve_fused
    from repro.numeric.supernodal import cholesky_supernodal
    from repro.numeric.trisolve import solve_supernodal
    from repro.sparse.generators import grid2d_laplacian
    from repro.symbolic.analyze import analyze

    fused._usable_cpus = lambda: 2
    factor = cholesky_supernodal(analyze(grid2d_laplacian(12)))
    b = np.random.default_rng(0).standard_normal((factor.n, 16))
    ref = solve_supernodal(factor, b).tobytes()

    def workers():
        return [t.name for t in threading.enumerate()].count("repro-fused-part")

    solve_fused(factor, b[:, 0])
    assert workers() == 0, "a one-column solve started the worker"
    assert solve_fused(factor, b).tobytes() == ref and workers() == 1
    pid = os.fork()
    if pid == 0:
        fresh = fused._jobs is None and workers() == 0
        ok = fresh and solve_fused(factor, b).tobytes() == ref and workers() == 1
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, "the forked child's split solve failed"
    assert solve_fused(factor, b).tobytes() == ref and workers() == 1
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_the_worker_starts_lazily_and_afresh_in_a_forked_child():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _FORK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
