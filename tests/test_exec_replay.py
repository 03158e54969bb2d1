"""The level replay operator: a level's extend-add as one compiled sparse product.

``compile_level_program`` lowers every level's gather and child
contribution replay to one structure-only CSR operator ``replay`` over the
fused workspace ``[y | contrib]``.  Under test:

* the operator is exactly what the tree's nodes spell out — row by row
  the top's own right-hand-side column, then the child contributions in
  (parent ascending, child ascending, row ascending) order, every
  coefficient 1.0, int32 indices;
* its product is the in-order, entry-at-a-time scatter-add, bit for bit;
* fused, serial and engine solves agree to the byte, every column of a
  wide solve is the one-column solve, and served answers are standalone
  answers;
* the sweeps make at most one zero fill and four calls per level each
  way, whatever the level holds.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from repro.core.solver import DEFAULT_RELAX
from repro.exec import (
    clear_exec_caches,
    forward_fused,
    fused_panels_for,
    program_for,
    solve_exec,
    solve_fused,
)
from repro.exec import fused
from repro.exec.arena import build_fused_workspace
from repro.exec.plan import _replay_operator
from repro.numeric.supernodal import cholesky_supernodal
from repro.numeric.trisolve import forward_supernodal, solve_supernodal
from repro.serve import FakeClock, SolveService
from repro.sparse.generators import fe_mesh_3d, grid2d_laplacian, grid3d_laplacian, random_spd
from repro.symbolic.analyze import analyze

MATRICES = {
    "grid2d(6)": lambda: grid2d_laplacian(6),
    "grid3d(4)": lambda: grid3d_laplacian(4),
    "fe_mesh_3d(4)": lambda: fe_mesh_3d(4, seed=219),
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exec_caches()
    yield
    clear_exec_caches()


# every matrix unrelaxed (ids without a suffix) and at the solver's default
_BATTERY = [(m, r) for r in (0, DEFAULT_RELAX) for m in MATRICES]


@pytest.fixture(scope="module", params=_BATTERY,
                ids=[m if r == 0 else f"{m}-relax{r}" for m, r in _BATTERY])
def factor(request):
    name, relax = request.param
    return cholesky_supernodal(analyze(MATRICES[name](), relax=relax))


def _rhs(n: int, m: int, seed: int) -> np.ndarray:
    """Normal entries with a quarter of them -0.0: signed zeros must survive."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, m))
    b[rng.random(b.shape) < 0.25] = -0.0
    return b


# ------------------------------------------------------------- the operator
def _expected_rows(stree):
    """Per level, per accumulator row, the workspace columns it sums, in order.

    A plain walk over the tree's nodes — parents ascending, each top's own
    column first, then children ascending and their rows ascending.
    """
    program = program_for(stree)
    rows = [[[] for _ in range(lvl.size)] for lvl in program.levels]
    for s, sn in enumerate(stree.supernodes):
        acc = rows[int(program.node_level[s])]
        top, below = int(program.node_top_off[s]), int(program.node_below_off[s])
        for j in range(sn.t):
            acc[top + j].append(sn.col_lo + j)
        position = {int(r): k for k, r in enumerate(sn.rows)}
        for c in stree.children[s]:
            for r, row in enumerate(stree.supernodes[c].below.tolist()):
                k = position[row]
                dest = top + k if k < sn.t else below + k - sn.t
                acc[dest].append(program.n + int(program.contrib_off[c]) + r)
    return program, rows


def _assert_operators_are_the_plans_incidence(a):
    stree = analyze(a).stree
    program, expected = _expected_rows(stree)
    ncols = program.n + program.contrib_total
    for lvl, rows in zip(program.levels, expected):
        op = lvl.replay
        assert op.format == "csr" and op.shape == (lvl.size, ncols)
        assert op.indices.dtype == np.int32 and op.indptr.dtype == np.int32
        assert np.all(op.data == 1.0)
        for i, cols in enumerate(rows):
            assert op.indices[op.indptr[i] : op.indptr[i + 1]].tolist() == cols, (lvl.index, i)
        incidence = np.zeros((lvl.size, ncols))
        for i, cols in enumerate(rows):
            incidence[i, cols] = 1.0
        assert np.array_equal(op.toarray(), incidence)


class TestReplayOperator:
    @pytest.mark.parametrize("name", list(MATRICES))
    def test_operator_is_the_plans_incidence(self, name):
        _assert_operators_are_the_plans_incidence(MATRICES[name]())

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        a=strategies.builds(
            random_spd,
            n=strategies.integers(2, 40),
            density=strategies.floats(0.02, 0.6),
            seed=strategies.integers(0, 2**16),
        )
    )
    def test_operator_is_the_plans_incidence_on_random_patterns(self, a):
        clear_exec_caches()
        _assert_operators_are_the_plans_incidence(a)

    @settings(max_examples=60, deadline=None)
    @given(
        multiplicities=strategies.lists(strategies.integers(1, 5), min_size=1, max_size=12),
        ntop=strategies.integers(0, 6),
        m=strategies.sampled_from([1, 4, 16]),
        seed=strategies.integers(0, 2**16),
    )
    def test_product_equals_in_order_scatter_add_bit_for_bit(self, multiplicities, ntop, m, seed):
        rng = np.random.default_rng(seed)
        nrows = len(multiplicities) + 2  # two rows nobody adds to
        tt = min(ntop, nrows)
        n = tt + 3
        dst = rng.permutation(np.repeat(rng.permutation(nrows)[:-2], multiplicities))
        src = n + rng.permutation(dst.size + 3)[: dst.size]
        top_src = rng.permutation(n)[:tt]
        # magnitudes spread over many binades so the order of additions shows;
        # signed zeros so the zero start shows
        xc = rng.normal(size=(n + dst.size + 3, m)) * 10.0 ** rng.integers(-8, 8, (n + dst.size + 3, 1))
        xc[rng.random(xc.shape) < 0.2] = -0.0

        expect = np.zeros((nrows, m))
        for i in range(tt):
            expect[i] = expect[i] + xc[top_src[i]]
        for d, s in zip(dst.tolist(), src.tolist()):
            expect[d] = expect[d] + xc[s]

        op = _replay_operator(nrows, top_src, dst, src, xc.shape[0])
        assert (op @ xc).tobytes() == expect.tobytes()


# ------------------------------------------------------------ the answers
class TestSameBits:
    @pytest.mark.parametrize("m", [1, 5])
    def test_fused_serial_and_engine_agree_to_the_byte(self, factor, m):
        b = _rhs(factor.n, m, seed=m)
        x = solve_fused(factor, b)
        assert x.tobytes() == solve_supernodal(factor, b).tobytes()
        assert x.tobytes() == solve_exec(factor, b, workers=2).tobytes()
        assert forward_fused(factor, b).tobytes() == forward_supernodal(factor, b).tobytes()

    def test_every_column_of_a_wide_solve_is_the_one_column_solve(self, factor):
        b = _rhs(factor.n, 17, seed=17)
        alone = [solve_fused(factor, b[:, j]).tobytes() for j in range(17)]
        for m in (1, 2, 3, 7, 16, 17):
            x = solve_fused(factor, b[:, :m])
            for j in range(m):
                assert np.ascontiguousarray(x[:, j]).tobytes() == alone[j], (m, j)

    def test_served_answers_are_standalone_answers(self, factor):
        service = SolveService(max_batch=8, max_wait=1.0, clock=FakeClock())
        service.register("f", factor)
        requests = [_rhs(factor.n, 1, seed=s)[:, 0] for s in range(11)]
        requests.insert(4, _rhs(factor.n, 3, seed=99))
        try:
            futures = [service.submit(b, key="f") for b in requests]
            service.drain()
        finally:
            service.close()
        for b, fut in zip(requests, futures):
            assert fut.result(timeout=0).tobytes() == solve_fused(factor, b).tobytes()


# --------------------------------------------------------- the call budget
class _Visible:
    """A module whose callables run behind a Python frame.

    The profiler reports no event for ufunc or f2py calls; wrapped, each
    becomes one ``call`` event whose caller is the sweep.  A wrapper is
    built on first access and kept, so once warm an attribute lookup is
    no call of its own.
    """

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if callable(obj) and not isinstance(obj, type):
            def visible(*args, **kwargs):
                return obj(*args, **kwargs)

            setattr(self, name, visible)
            return visible
        return obj


def _calls_from(sweep, *args) -> int:
    """Calls made from *sweep*'s body, or from any helper of its module it
    delegates to (Python and C callees alike, library internals not)."""
    here = sweep.__code__.co_filename
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_back is not None and frame.f_back.f_code.co_filename == here:
            count += 1
        elif event == "c_call" and frame.f_code.co_filename == here:
            count += 1

    sys.setprofile(profile)
    try:
        sweep(*args)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("m", [1, 4])
def test_sweeps_make_at_most_four_calls_per_level(factor, m, monkeypatch):
    program = program_for(factor.stree)
    b = _rhs(factor.n, m, seed=5)
    # one zero fill and four calls a level (the scatter, a bound
    # ``__setitem__``, raises no profiler event), plus the sweep's own
    # set-up: nothing scales with the widths or the nodes of a level
    budget = 5 * program.nlevels + 4

    monkeypatch.setattr(fused, "np", _Visible(np))
    ws = build_fused_workspace(program, m)
    fused._bind(ws, program, fused_panels_for(factor))  # the tapes bind the visible ufuncs
    y = ws.xc[: factor.n]
    y[...] = b
    fused._sweep(ws.forward)  # warm the wrappers
    fused._sweep(ws.backward)
    y[...] = b
    forward = _calls_from(fused._sweep, ws.forward)
    backward = _calls_from(fused._sweep, ws.backward)
    assert forward <= budget, (forward, budget)
    assert backward <= budget, (backward, budget)
    # the wrapped sweeps still compute the solve
    assert y.tobytes() == solve_supernodal(factor, b).tobytes()
