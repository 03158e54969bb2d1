"""Property-based cross-validation of every triangular-solve implementation.

For random SPD-patterned systems, the serial supernodal solvers
(``numeric/trisolve``), the simplicial reference, and the threaded exec
backend must all agree with ``scipy.sparse.linalg.spsolve_triangular`` to
1e-10, for vector and ``(n, nrhs)`` right-hand sides; the three real
executions must agree with each other *bitwise*, at every batch width.
Runs derandomized (seeded) so CI is stable.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.sparse.linalg import spsolve_triangular

from repro.core.solver import DEFAULT_RELAX
from repro.exec import backward_fused, forward_fused, solve_exec, solve_fused
from repro.numeric.supernodal import cholesky_supernodal
from repro.numeric.trisolve import (
    backward_simplicial,
    backward_supernodal,
    forward_simplicial,
    forward_supernodal,
    solve_supernodal,
)
from repro.sparse.build import from_triplets
from repro.sparse.generators import random_spd
from repro.sparse.ops import relative_residual
from repro.symbolic.analyze import analyze

SEEDED = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

ATOL = 1e-10


@st.composite
def factored_system(draw, max_n=32):
    """Random connected SPD matrix (path + extra edges), factored."""
    n = draw(st.integers(3, max_n))
    extra = draw(st.integers(0, 2 * n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = list(range(1, n))
    cols = list(range(0, n - 1))
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i != j:
            rows.append(int(max(i, j)))
            cols.append(int(min(i, j)))
    vals = -rng.uniform(0.1, 1.0, len(rows))
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    rows += list(range(n))
    cols += list(range(n))
    vals = np.concatenate([vals, deg + 0.5])
    a = from_triplets(n, np.array(rows), np.array(cols), vals)
    sym = analyze(a)
    factor = cholesky_supernodal(sym)
    nrhs = draw(st.sampled_from([0, 1, 3, 8]))  # 0 encodes "plain vector"
    rhs_seed = draw(st.integers(0, 2**31 - 1))
    rhs_rng = np.random.default_rng(rhs_seed)
    b = rhs_rng.normal(size=n if nrhs == 0 else (n, nrhs))
    return sym, factor, b


def _lower_csr(sym, factor):
    return factor.to_lower_csc(sym.l_indptr, sym.l_indices).to_scipy().tocsr()


@SEEDED
@given(system=factored_system())
def test_forward_implementations_agree_with_scipy(system):
    sym, factor, b = system
    lower = _lower_csr(sym, factor)
    bmat = b if b.ndim == 2 else b[:, None]
    y_scipy = spsolve_triangular(lower, bmat, lower=True)
    if b.ndim == 1:
        y_scipy = y_scipy[:, 0]
    lcsc = factor.to_lower_csc(sym.l_indptr, sym.l_indices)
    for name, y in [
        ("supernodal", forward_supernodal(factor, b)),
        ("simplicial", forward_simplicial(lcsc, b)),
        ("fused", forward_fused(factor, b)),
    ]:
        assert np.allclose(y, y_scipy, atol=ATOL), f"{name} deviates from scipy"


@SEEDED
@given(system=factored_system())
def test_backward_implementations_agree_with_scipy(system):
    sym, factor, b = system
    upper = _lower_csr(sym, factor).T.tocsr()
    bmat = b if b.ndim == 2 else b[:, None]
    x_scipy = spsolve_triangular(upper, bmat, lower=False)
    if b.ndim == 1:
        x_scipy = x_scipy[:, 0]
    lcsc = factor.to_lower_csc(sym.l_indptr, sym.l_indices)
    for name, x in [
        ("supernodal", backward_supernodal(factor, b)),
        ("simplicial", backward_simplicial(lcsc, b)),
        ("fused", backward_fused(factor, b)),
    ]:
        assert np.allclose(x, x_scipy, atol=ATOL), f"{name} deviates from scipy"


@SEEDED
@given(system=factored_system(), workers=st.sampled_from([1, 2, 4]))
def test_full_solve_recovers_known_solution(system, workers):
    sym, factor, b = system
    # Solve against the permuted matrix directly: A_perm = L L^T.
    x = solve_exec(factor, b, workers=workers)
    a_dense = sym.a_perm.to_dense()
    x_ref = np.linalg.solve(a_dense, b if b.ndim == 2 else b)
    assert np.allclose(x, x_ref, atol=1e-8)


@SEEDED
@given(
    a=st.builds(
        random_spd,
        n=st.integers(2, 40),
        density=st.floats(0.02, 0.6),
        seed=st.integers(0, 2**16),
    ),
    rhs_seed=st.integers(0, 2**16),
    relax=st.sampled_from([0, DEFAULT_RELAX]),
)
def test_real_executions_agree_bitwise_at_every_width(a, rhs_seed, relax):
    """serial == fused == engine to the byte; a 16-wide solve is sixteen 1-wide solves."""
    sym = analyze(a, relax=relax)
    factor = cholesky_supernodal(sym)
    b = np.random.default_rng(rhs_seed).normal(size=(a.n, 16))
    b[:, 3] = 0.0  # a whole zero column, and a signed-zero sprinkle
    b[::3, 5] = -0.0
    wide = solve_fused(factor, b)
    assert wide.tobytes() == solve_supernodal(factor, b).tobytes()
    assert wide.tobytes() == solve_exec(factor, b, workers=2).tobytes()
    for j in range(16):
        column = np.ascontiguousarray(wide[:, j])
        assert column.tobytes() == solve_fused(factor, b[:, j]).tobytes(), j
        assert column.tobytes() == solve_supernodal(factor, b[:, j]).tobytes(), j

    # and the answer is right: against scipy's triangular solves on the
    # assembled factor, and by the residual of the permuted system.
    lower = _lower_csr(sym, factor)
    x_scipy = spsolve_triangular(
        lower.T.tocsr(), spsolve_triangular(lower, b, lower=True), lower=False
    )
    scale = max(np.abs(x_scipy).max(), 1.0)
    assert np.allclose(wide, x_scipy, rtol=0.0, atol=1e-9 * scale)
    nonzero = [j for j in range(16) if j != 3]
    assert relative_residual(sym.a_perm, wide[:, nonzero], b[:, nonzero]) < 1e-10
