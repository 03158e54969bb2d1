"""Column-slice invariance of the canonical dense kernels.

The serving layer's transparency promise — a request's answer is bitwise
identical whatever batch it lands in — reduces to one property of the
kernels in :mod:`repro.numeric.kernels`: column ``j`` of every
``m``-column result equals the 1-column result on column ``j`` alone,
bit for bit, for every ``m``.  These tests pin that property directly,
including the empirical fact that motivated :func:`rect_apply` /
:func:`rect_apply_t` existing at all: BLAS ``dtrsm`` IS width-invariant
on this machine, while a plain GEMM is not guaranteed to be.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.numeric.kernels import (
    rect_apply,
    rect_apply_t,
    solve_lower,
    solve_lower_t,
    sum_terms,
)

WIDTHS = (2, 3, 4, 7, 16, 33)


def _rng():
    return np.random.default_rng(42)


def _lower(rng, t):
    diag = np.tril(rng.normal(size=(t, t)))
    diag[np.diag_indices(t)] = np.abs(diag[np.diag_indices(t)]) + 1.0
    return diag


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


@pytest.mark.parametrize("nb,t", [(1, 1), (3, 1), (7, 2), (20, 5), (64, 17), (150, 33)])
@pytest.mark.parametrize("m", WIDTHS)
def test_rect_apply_column_slice_invariant(nb, t, m):
    rng = _rng()
    rect = rng.normal(size=(nb, t))
    solved = rng.normal(size=(t, m))
    wide = rect_apply(rect, solved)
    for j in range(m):
        narrow = rect_apply(rect, solved[:, j : j + 1])
        assert np.array_equal(wide[:, j : j + 1], narrow)


@pytest.mark.parametrize("nb,t", [(1, 1), (3, 1), (7, 2), (20, 5), (64, 17), (150, 33)])
@pytest.mark.parametrize("m", WIDTHS)
def test_rect_apply_t_column_slice_invariant(nb, t, m):
    rng = _rng()
    rect = rng.normal(size=(nb, t))
    xg = rng.normal(size=(nb, m))
    wide = rect_apply_t(rect, xg)
    for j in range(m):
        narrow = rect_apply_t(rect, xg[:, j : j + 1])
        assert np.array_equal(wide[:, j : j + 1], narrow)


# The rounding order of the two rectangle kernels is a property of numpy's
# ``reduce`` / ``reduceat`` loops.  These are the explicit per-``k`` loops the
# kernels used to be; the one-product kernels must keep their bits.
def _rect_apply_oracle(rect, solved):
    out = rect[:, 0:1] * solved[0:1]
    for k in range(1, rect.shape[1]):
        out += rect[:, k : k + 1] * solved[k : k + 1]
    return out


def _rect_apply_t_oracle(rect, xg):
    seg0 = np.zeros(1, dtype=np.intp)
    out = np.empty((rect.shape[1], xg.shape[1]))
    for i in range(rect.shape[1]):
        np.add.reduceat(rect[:, i : i + 1] * xg, seg0, axis=0, out=out[i : i + 1])
    return out


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("nb", [1, 7, 8, 9, 40, 129, 4097])
@pytest.mark.parametrize("t", [1, 2, 9, 48])
def test_rect_kernels_keep_the_per_k_loops_bits(nb, t):
    rng = _rng()
    for m in (1, 4, 16):
        wide = rng.normal(size=(nb, t + 2))
        # zeros of both signs: an identity-initialised sum would lose -0.0
        wide[rng.random(wide.shape) < 0.2] = -0.0
        solved_pad = rng.normal(size=(t, m + 1))
        solved_pad[rng.random(solved_pad.shape) < 0.3] = 0.0
        xg_pad = rng.normal(size=(nb, m + 1))
        for rect, solved, xg in (
            (np.ascontiguousarray(wide[:, 1 : t + 1]),
             np.ascontiguousarray(solved_pad[:, :m]), np.ascontiguousarray(xg_pad[:, :m])),
            (wide[:, 1 : t + 1], solved_pad[:, :m], xg_pad[:, :m]),
        ):
            assert _same_bits(rect_apply(rect, solved), _rect_apply_oracle(rect, solved))
            assert _same_bits(rect_apply_t(rect, xg), _rect_apply_t_oracle(rect, xg))


def test_rect_apply_t_is_not_the_sequential_sum():
    """Pin what the order is *not*, so the docs cannot drift back.

    ``reduceat`` runs numpy's pairwise reduce loop; a strictly sequential
    ascending-row sum differs in the last bits for ordinary data.
    """
    rng = _rng()
    rect = rng.normal(size=(100, 1))
    xg = rng.normal(size=(100, 8))
    sequential = np.zeros((1, 8))
    for row in rect * xg:
        sequential += row
    got = rect_apply_t(rect, xg)
    np.testing.assert_allclose(got, sequential, rtol=1e-12)
    assert not np.array_equal(got, sequential)


@pytest.mark.parametrize("shape", [(1, 1, 1), (9, 1, 1), (48, 1, 1), (9, 3, 1), (9, 1, 4), (5, 7, 16)])
def test_sum_terms_is_the_ascending_sum_even_for_one_output(shape):
    # A single output element leaves numpy's reduce only the summed axis to
    # loop over, where it sums pairwise; sum_terms must not.
    rng = _rng()
    terms = rng.normal(size=shape)
    terms[rng.random(shape) < 0.3] = -0.0
    expect = terms[0].copy()
    for k in range(1, shape[0]):
        expect += terms[k]
    out = np.full(shape[1:], np.nan)
    assert sum_terms(terms.copy(), out) is out
    assert _same_bits(out, expect)


def test_rect_apply_workspace_matches_allocating_path():
    rng = _rng()
    rect = rng.normal(size=(40, 9))
    solved = rng.normal(size=(9, 6))
    out = np.full((40, 6), np.nan)
    tmp = np.full((40, 6), np.nan)
    got = rect_apply(rect, solved, out=out, tmp=tmp)
    assert got is out
    assert np.array_equal(out, rect_apply(rect, solved))
    # a scratch with room for the whole (t, nb, m) term stack is used in place
    big = np.full((40 * 9, 6), np.nan)
    assert np.array_equal(rect_apply(rect, solved, tmp=big), out)
    assert not np.isnan(big).any()


def test_rect_apply_t_workspace_matches_allocating_path():
    rng = _rng()
    rect = rng.normal(size=(40, 9))
    xg = rng.normal(size=(40, 6))
    out = np.full((9, 6), np.nan)
    tmp = np.full((40, 6), np.nan)
    got = rect_apply_t(rect, xg, out=out, tmp=tmp)
    assert got is out
    assert np.array_equal(out, rect_apply_t(rect, xg))


def test_rect_apply_t_width1_matches_unit_dot():
    """The t=1 rectangle path is the one-segment ``reduceat`` dot, bit for bit.

    ``unit_dot`` was a second kernel with this body; the width-1 panels of
    the serial walker and the engine now go through ``rect_apply_t`` and
    must keep producing its bits (the fused width-1 lane reduces level-wide
    segments the same way).
    """
    def unit_dot(rect, xg):
        return np.add.reduceat(rect * xg, np.zeros(1, dtype=np.intp), axis=0)

    rng = _rng()
    for nb in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4097):
        for m in (1, 4, 31):
            wide = rng.normal(size=(nb, 3))
            xg = rng.normal(size=(nb, m))
            for rect in (np.ascontiguousarray(wide[:, 1:2]), wide[:, 1:2]):
                assert np.array_equal(rect_apply_t(rect, xg), unit_dot(rect, xg))


def test_rect_apply_matches_gemm_to_rounding():
    """Fixed-order accumulation is still the same product numerically."""
    rng = _rng()
    rect = rng.normal(size=(50, 12))
    solved = rng.normal(size=(12, 8))
    np.testing.assert_allclose(rect_apply(rect, solved), rect @ solved, rtol=1e-13)
    xg = rng.normal(size=(50, 8))
    np.testing.assert_allclose(rect_apply_t(rect, xg), rect.T @ xg, rtol=1e-13)


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
