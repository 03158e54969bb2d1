"""The canonical kernels: their accumulation order and column-slice invariance.

The serving layer's transparency promise — a request's answer is bitwise
identical whatever batch it lands in — reduces to one property of the
kernels in :mod:`repro.numeric.kernels`: column ``j`` of every
``m``-column result equals the 1-column result on column ``j`` alone,
bit for bit, for every ``m``.  For the triangle and rectangle kernels that
follows from their order — per output row a zero-started, strictly
ascending sum of separately rounded products.  Two library loops realise
it: numpy's outer-axis ``reduce`` inside ``tri_apply`` / ``tri_apply_t`` /
``rect_apply`` / ``rect_apply_t`` (one block at a time: serial walker,
engine baseline) and scipy's compiled ``csr_matvec(s)`` / ``csc_matvec(s)``
(one operator per level: the fused program).  These tests pin both
against explicit Python loops and against each other.  The ``dtrsm``
oracle (``solve_lower`` / ``solve_lower_t``) is pinned too: BLAS ``dtrsm``
IS width-invariant on this machine, while a plain GEMM is not guaranteed
to be.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_array

from repro.exec import fused_panels_for, prepare_factor, program_for
from repro.numeric.kernels import (
    rect_apply,
    rect_apply_t,
    solve_lower,
    solve_lower_t,
    tri_apply,
    tri_apply_t,
)
from repro.numeric.supernodal import cholesky_supernodal
from repro.sparse.generators import fe_mesh_3d, grid2d_laplacian, grid3d_laplacian
from repro.symbolic.analyze import analyze

WIDTHS = (1, 2, 3, 4, 7, 16, 17, 33)


def _rng():
    return np.random.default_rng(42)


def _lower(rng, t):
    diag = np.tril(rng.normal(size=(t, t)))
    diag[np.diag_indices(t)] = np.abs(diag[np.diag_indices(t)]) + 1.0
    return diag


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------ triangles
@pytest.mark.parametrize("t", [1, 2, 5, 17, 64])
@pytest.mark.parametrize("m", WIDTHS)
def test_solve_lower_column_slice_invariant(t, m):
    rng = _rng()
    diag = _lower(rng, t)
    top = rng.normal(size=(t, m))
    wide = solve_lower(diag, top)
    for j in range(m):
        narrow = solve_lower(diag, top[:, j : j + 1])
        assert np.array_equal(wide[:, j : j + 1], narrow)


@pytest.mark.parametrize("t", [1, 2, 5, 17, 64])
@pytest.mark.parametrize("m", WIDTHS)
def test_solve_lower_t_column_slice_invariant(t, m):
    rng = _rng()
    diag = _lower(rng, t)
    top = rng.normal(size=(t, m))
    wide = solve_lower_t(diag, top)
    for j in range(m):
        narrow = solve_lower_t(diag, top[:, j : j + 1])
        assert np.array_equal(wide[:, j : j + 1], narrow)


def test_dtrsm_width_invariance_assumption_holds():
    """Pin the empirical BLAS fact the design note in kernels.py relies on.

    solve_lower/solve_lower_t call dtrsm directly for t > 1, so the
    kernel contract silently assumes this BLAS's dtrsm picks the same
    per-column rounding at every RHS width.  If a BLAS upgrade ever
    breaks that, this test localises the failure to the assumption
    rather than leaving a mysterious transparency regression.
    """
    from scipy.linalg.blas import dtrsm

    rng = _rng()
    for t in (8, 37, 96):
        diag = _lower(rng, t)
        top = rng.normal(size=(t, 24))
        for trans in (0, 1):
            wide = dtrsm(1.0, diag, top, lower=1, trans_a=trans)
            for j in (0, 11, 23):
                narrow = dtrsm(1.0, diag, top[:, j : j + 1], lower=1, trans_a=trans)
                assert np.array_equal(wide[:, j : j + 1], narrow)


# ------------------------------------------------------------------ inverted triangles
# The order, spelled out: row i starts at +0.0 and takes inv[i, k] * top[k]
# for k = 0..i, ascending; backward row k takes inv[i, k] * top[i] for
# i = k..t-1.  The strict upper triangle is never touched.
def _tri_apply_oracle(inv, top):
    out = np.zeros(top.shape)
    for i in range(inv.shape[0]):
        row = np.zeros(top.shape[1])
        for k in range(i + 1):
            row = row + inv[i, k] * top[k]
        out[i] = row
    return out


def _tri_apply_t_oracle(inv, top):
    out = np.zeros(top.shape)
    for k in range(inv.shape[0]):
        row = np.zeros(top.shape[1])
        for i in range(k, inv.shape[0]):
            row = row + inv[i, k] * top[i]
        out[k] = row
    return out


def _tri_operands(rng, t, m):
    """``(inv, top)`` as strided views of padded blocks, and as contiguous copies."""
    wide = np.tril(rng.normal(size=(t, t + 2)), 1)[:, 1 : t + 1]  # upper triangle zero
    wide[(rng.random(wide.shape) < 0.2) & np.tri(t, dtype=bool)] = -0.0
    top_pad = rng.normal(size=(t, m + 1))
    top_pad[rng.random(top_pad.shape) < 0.3] = -0.0
    strided = (wide, top_pad[:, :m])
    return [strided, tuple(np.ascontiguousarray(a) for a in strided)]


def _tri_csr(inv):
    """The lower triangle of *inv* as the CSR rows the fused program stores."""
    t = inv.shape[0]
    rows, cols = np.tril_indices(t)
    return csr_array((inv[rows, cols], cols.astype(np.int32),
                      np.concatenate(([0], np.cumsum(np.arange(1, t + 1)))).astype(np.int32)),
                     shape=(t, t))


@pytest.mark.parametrize("t", [1, 2, 5, 17, 48])
def test_tri_kernels_keep_the_per_k_loops_bits(t):
    rng = _rng()
    for m in (1, 2, 3, 7, 16, 17):
        for inv, top in _tri_operands(rng, t, m):
            forward = _tri_apply_oracle(inv, top)
            assert _same_bits(tri_apply(inv, top), forward)
            assert _same_bits(_tri_csr(inv) @ top, forward)
            backward = _tri_apply_t_oracle(inv, top)
            assert _same_bits(tri_apply_t(inv, top), backward)
            assert _same_bits(_tri_csr(inv).T @ top, backward)


@pytest.mark.parametrize("t", [1, 2, 5, 17, 64])
@pytest.mark.parametrize("m", WIDTHS)
def test_tri_kernels_column_slice_invariant(t, m):
    rng = _rng()
    inv = np.tril(rng.normal(size=(t, t)))
    top = rng.normal(size=(t, m))
    for kernel in (tri_apply, tri_apply_t):
        wide = kernel(inv, top)
        for j in range(m):
            assert _same_bits(wide[:, j : j + 1], kernel(inv, top[:, j : j + 1]))


@pytest.mark.parametrize("m", [1, 3])
def test_non_finite_operands_do_not_leak_through_the_upper_zeros(m):
    # 0 * inf is NaN: a kernel that multiplied the stored-zero upper triangle
    # would spread an infinite row upwards; the sparse product never sees it.
    rng = _rng()
    t = 6
    inv = np.tril(rng.normal(size=(t, t)))
    top = rng.normal(size=(t, m))
    top[4] = np.inf
    top[2, 0] = np.nan
    forward = tri_apply(inv, top)
    assert np.isfinite(forward[:2]).all() and np.isnan(forward[2:, 0]).all()
    assert np.array_equal(forward, _tri_csr(inv) @ top, equal_nan=True)
    backward = tri_apply_t(inv, top)
    assert np.isfinite(backward[5]).all()
    assert np.array_equal(backward, _tri_csr(inv).T @ top, equal_nan=True)


def test_tri_kernels_solve_the_triangle():
    rng = _rng()
    for t in (1, 4, 33):
        diag = _lower(rng, t)
        inv = np.tril(np.linalg.inv(diag))
        top = rng.normal(size=(t, 5))
        for ours, theirs in ((tri_apply(inv, top), solve_lower(diag, top)),
                             (tri_apply_t(inv, top), solve_lower_t(diag, top))):
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12 * np.abs(theirs).max())
    # a -0.0 right-hand side comes out +0.0, as from every zero-started sum
    assert not np.signbit(tri_apply(np.ones((1, 1)), np.full((1, 3), -0.0))).any()


@pytest.mark.parametrize(
    "build,relax",
    [(lambda: grid2d_laplacian(9), 0), (lambda: grid3d_laplacian(5), 16),
     (lambda: fe_mesh_3d(4, seed=219), 16)],
    ids=["grid2d(9)-relax0", "grid3d(5)-relax16", "fe_mesh_3d(4)-relax16"],
)
@pytest.mark.parametrize("m", [1, 4])
def test_level_diagonal_product_is_the_per_node_kernel_to_the_byte(build, relax, m):
    """``D @ tops`` / ``D.T @ tops`` over a level == ``tri_apply(_t)`` node by node."""
    factor = cholesky_supernodal(analyze(build(), relax=relax))
    program = program_for(factor.stree)
    panels = fused_panels_for(factor)
    inv = prepare_factor(factor).inv
    rng = _rng()
    for lvl, d, dt in zip(program.levels, panels.diag, panels.diag_t):
        tt = lvl.top_total
        assert d.format == "csr" and dt.format == "csc" and d.shape == dt.shape == (tt, tt)
        assert np.shares_memory(d.data, dt.data)
        tops = rng.normal(size=(tt, m))
        tops[rng.random(tops.shape) < 0.2] = -0.0
        forward, backward = np.empty_like(tops), np.empty_like(tops)
        for s in np.flatnonzero(program.node_level == lvl.index).tolist():
            lo, hi = program.node_top_off[s], program.node_top_off[s] + inv[s].shape[0]
            forward[lo:hi] = tri_apply(inv[s], tops[lo:hi])
            backward[lo:hi] = tri_apply_t(inv[s], tops[lo:hi])
        assert _same_bits(d @ tops, forward)
        assert _same_bits(dt @ tops, backward)


# ------------------------------------------------------------------ rectangle oracles
# The order, spelled out: every output row starts at +0.0 and takes its
# terms one at a time, ascending, each product rounded before it is added.
def _rect_apply_oracle(rect, solved):
    out = np.zeros((rect.shape[0], solved.shape[1]))
    for k in range(rect.shape[1]):
        term = rect[:, k : k + 1] * solved[k : k + 1]
        out = out + term
    return out


def _rect_apply_t_oracle(rect, xg):
    out = np.zeros((rect.shape[1], xg.shape[1]))
    for i in range(rect.shape[0]):
        term = rect[i][:, None] * xg[i][None, :]
        out = out + term
    return out


def _as_csr(rect):
    """*rect* row by row as CSR — what the fused program multiplies by, for one node."""
    nb, t = rect.shape
    return csr_array(
        (np.ascontiguousarray(rect).reshape(-1), np.tile(np.arange(t, dtype=np.int32), nb),
         np.arange(0, nb * t + 1, t, dtype=np.int32)),
        shape=(nb, t),
    )


def _operands(rng, nb, t, m):
    """``(rect, solved, xg)`` as strided views of padded blocks, and as contiguous copies."""
    wide = rng.normal(size=(nb, t + 2))
    wide[rng.random(wide.shape) < 0.2] = -0.0  # zeros of both signs
    solved_pad = rng.normal(size=(t, m + 1))
    solved_pad[rng.random(solved_pad.shape) < 0.3] = 0.0
    xg_pad = rng.normal(size=(nb, m + 1))
    xg_pad[rng.random(xg_pad.shape) < 0.3] = -0.0
    strided = (wide[:, 1 : t + 1], solved_pad[:, :m], xg_pad[:, :m])
    return [strided, tuple(np.ascontiguousarray(a) for a in strided)]


@pytest.mark.parametrize("nb", [0, 1, 7, 8, 9, 40, 129, 4097])
@pytest.mark.parametrize("t", [1, 2, 9, 48])
def test_rect_kernels_keep_the_per_k_loops_bits(nb, t):
    rng = _rng()
    for m in (1, 2, 3, 7, 16, 17):
        for rect, solved, xg in _operands(rng, nb, t, m):
            f = _as_csr(rect)
            forward = _rect_apply_oracle(rect, solved)
            assert _same_bits(rect_apply(rect, solved), forward)
            assert _same_bits(f @ solved, forward)
            backward = _rect_apply_t_oracle(rect, xg)
            assert _same_bits(rect_apply_t(rect, xg), backward)
            assert _same_bits(f.T @ xg, backward)


@pytest.mark.parametrize("shape", [(1, 1, 1), (9, 1, 1), (48, 1, 1), (9, 3, 1), (9, 1, 4), (5, 7, 16)])
def test_sum_terms_is_the_ascending_sum_even_for_one_output(shape):
    # A single output element leaves a reduction only the summed axis to
    # loop over — where numpy's reduce sums pairwise and scipy takes its
    # one-column routine; the sum of the terms must stay sequential there.
    rng = _rng()
    terms = rng.normal(size=shape)
    terms[rng.random(shape) < 0.3] = -0.0
    expect = np.zeros(shape[1:])
    for k in range(shape[0]):
        expect = expect + terms[k]
    t, nb, m = shape
    ones = np.ones((t, 1))
    for j in range(m):  # terms[k, :, j] = rect[:, k] * 1 forward, = rect[k, :] * 1 backward
        rows = terms[:, :, j]
        assert _same_bits(rect_apply(np.ascontiguousarray(rows.T), ones), expect[:, j : j + 1])
        assert _same_bits(_as_csr(rows.T) @ ones, expect[:, j : j + 1])
        assert _same_bits(rect_apply_t(rows, ones), expect[:, j : j + 1])
        assert _same_bits(_as_csr(rows).T @ ones, expect[:, j : j + 1])


@pytest.mark.parametrize("m", WIDTHS)
def test_all_negative_zero_terms_sum_to_positive_zero(m):
    # A sum started from its first term would keep -0.0; one started from
    # +0.0 cannot, and that is the order all three executions share.
    rect = np.full((5, 3), -0.0)
    ones = np.ones((3, m))
    forward = rect_apply(rect, ones)
    assert not forward.any() and not np.signbit(forward).any()
    backward = rect_apply_t(rect, np.ones((5, m)))
    assert not backward.any() and not np.signbit(backward).any()
    # a single -0.0 term per row (t = 1) is no exception
    assert not np.signbit(rect_apply(rect[:, :1], ones[:1])).any()


@pytest.mark.parametrize("nb,t", [(1, 1), (3, 1), (7, 2), (20, 5), (64, 17), (150, 33)])
@pytest.mark.parametrize("m", WIDTHS)
def test_rect_apply_column_slice_invariant(nb, t, m):
    rng = _rng()
    rect = rng.normal(size=(nb, t))
    solved = rng.normal(size=(t, m))
    wide = rect_apply(rect, solved)
    for j in range(m):
        assert _same_bits(wide[:, j : j + 1], rect_apply(rect, solved[:, j : j + 1]))


@pytest.mark.parametrize("nb,t", [(1, 1), (3, 1), (7, 2), (20, 5), (64, 17), (150, 33)])
@pytest.mark.parametrize("m", WIDTHS)
def test_rect_apply_t_column_slice_invariant(nb, t, m):
    rng = _rng()
    rect = rng.normal(size=(nb, t))
    xg = rng.normal(size=(nb, m))
    wide = rect_apply_t(rect, xg)
    for j in range(m):
        assert _same_bits(wide[:, j : j + 1], rect_apply_t(rect, xg[:, j : j + 1]))


def test_rect_apply_t_width1_matches_unit_dot():
    """The t=1 rectangle path is the zero-started sequential dot, bit for bit.

    Width-1 panels are most of a grid factor and their below-rows the
    longest sums of the backward sweep, so the order is pinned on long
    columns too: one running sum per right-hand side, ascending rows.
    """
    def unit_dot(rect, xg):
        out = np.zeros((1, xg.shape[1]))
        for i in range(rect.shape[0]):
            out = out + rect[i, 0] * xg[i : i + 1]
        return out

    rng = _rng()
    for nb in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4097):
        for m in (1, 4, 31):
            wide = rng.normal(size=(nb, 3))
            xg = rng.normal(size=(nb, m))
            for rect in (np.ascontiguousarray(wide[:, 1:2]), wide[:, 1:2]):
                assert _same_bits(rect_apply_t(rect, xg), unit_dot(rect, xg))


@pytest.mark.parametrize("m", WIDTHS)
def test_csc_view_of_the_same_arrays_is_the_transposed_product(m):
    """What the fused backend relies on: ``F.T`` moves no value and keeps the order."""
    rng = _rng()
    nb, t = 40, 9
    rect = rng.normal(size=(nb, t))
    rect[rng.random(rect.shape) < 0.2] = -0.0
    solved = rng.normal(size=(t, m))
    xg = rng.normal(size=(nb, m))
    f = _as_csr(rect)
    ft = f.T
    assert ft.format == "csc" and ft.shape == (t, nb)
    for ours, theirs in ((ft.data, f.data), (ft.indices, f.indices), (ft.indptr, f.indptr)):
        assert np.shares_memory(ours, theirs)
    assert np.shares_memory(f.data, rect)
    assert _same_bits(f @ solved, rect_apply(rect, solved))
    assert _same_bits(ft @ xg, rect_apply_t(rect, xg))
    assert _same_bits(ft @ xg, _rect_apply_t_oracle(rect, xg))


def test_rect_apply_workspace_matches_allocating_path():
    rng = _rng()
    rect = rng.normal(size=(40, 9))
    solved = rng.normal(size=(9, 6))
    out = np.full((40, 6), np.nan)
    tmp = np.full((40, 6), np.nan)
    got = rect_apply(rect, solved, out=out, tmp=tmp)
    assert got is out
    assert _same_bits(out, rect_apply(rect, solved))
    assert np.isnan(tmp).all()  # accepted for the spine's sake, never touched


def test_rect_apply_t_workspace_matches_allocating_path():
    rng = _rng()
    rect = rng.normal(size=(40, 9))
    xg = rng.normal(size=(40, 6))
    out = np.full((9, 6), np.nan)
    tmp = np.full((40, 6), np.nan)
    got = rect_apply_t(rect, xg, out=out, tmp=tmp)
    assert got is out
    assert _same_bits(out, rect_apply_t(rect, xg))
    assert np.isnan(tmp).all()


def test_rect_apply_matches_gemm_to_rounding():
    """Fixed-order accumulation is still the same product numerically."""
    rng = _rng()
    rect = rng.normal(size=(50, 12))
    solved = rng.normal(size=(12, 8))
    np.testing.assert_allclose(rect_apply(rect, solved), rect @ solved, rtol=1e-13)
    xg = rng.normal(size=(50, 8))
    np.testing.assert_allclose(rect_apply_t(rect, xg), rect.T @ xg, rtol=1e-13)

