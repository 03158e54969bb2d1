"""Property-based cross-validation of every triangular-solve implementation.

For random SPD-patterned systems, the serial supernodal solvers
(``numeric/trisolve``), the simplicial reference, and the threaded exec
backend must all agree with ``scipy.sparse.linalg.spsolve_triangular`` to
1e-10, for vector and ``(n, nrhs)`` right-hand sides.  Runs derandomized
(seeded) so CI is stable.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.sparse.linalg import spsolve_triangular

from repro.exec import backward_fused, forward_fused, solve_exec
from repro.numeric.supernodal import cholesky_supernodal
from repro.numeric.trisolve import (
    backward_simplicial,
    backward_supernodal,
    forward_simplicial,
    forward_supernodal,
)
from repro.sparse.build import from_triplets
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
