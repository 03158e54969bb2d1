"""Accuracy of the inverted diagonal solves against the ``dtrsm`` oracle.

Every real execution applies a supernode's diagonal block as a product
with its inverse (``1 / pivot`` at width 1, ``tril(L_ss⁻¹)`` above) rather
than by substitution.  The bits differ from a substitution; the accuracy
must not, beyond a factor fixed here before measuring: the componentwise
backward error ω of the fused solve stays within 4× that of the same
walk with ``dtrsm`` triangles (``tests/_oracles.py``), on the same tree,
over the verification gate's matrices and four harder inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solver import DEFAULT_RELAX
from repro.exec import solve_fused
from repro.numeric.supernodal import cholesky_supernodal
from repro.sparse.generators import (
    anisotropic_laplacian,
    fe_mesh_3d,
    graded_mesh_2d,
    grid2d_laplacian,
    grid3d_laplacian,
    random_spd,
)
from repro.symbolic.analyze import analyze
from tests._oracles import backward_error, dtrsm_solve

#: ω(fused) / ω(dtrsm oracle) may not exceed this on any case.
OMEGA_RATIO = 4.0

MATRICES = {
    # the schedule-certification battery of ``python -m repro.verify``
    "grid2d(8)": lambda: grid2d_laplacian(8),
    "grid2d(12)": lambda: grid2d_laplacian(12),
    "grid3d(4)": lambda: grid3d_laplacian(4),
    "fe_mesh_3d(5)": lambda: fe_mesh_3d(5, seed=219),
    "fe_mesh_3d(12, seed=219)": lambda: fe_mesh_3d(12, seed=219),
    # harder inputs
    "anisotropic(48, 1e-6)": lambda: anisotropic_laplacian(48, epsilon=1e-6),
    "graded(48, 4)": lambda: graded_mesh_2d(48, grading=4),
    "random_spd(2000)": lambda: random_spd(2000),
    "fe_mesh_3d(12)": lambda: fe_mesh_3d(12),
}

# Each tree at the solver's default and unrelaxed; random_spd's ordering
# takes seconds, so it runs on the default tree only.
CASES = [
    (name, relax)
    for name in MATRICES
    for relax in ((DEFAULT_RELAX,) if name == "random_spd(2000)" else (0, DEFAULT_RELAX))
]


@pytest.mark.parametrize("name,relax", CASES, ids=[f"{n}-relax{r}" for n, r in CASES])
def test_inverted_solve_is_as_accurate_as_substitution(name, relax):
    sym = analyze(MATRICES[name](), relax=relax)
    factor = cholesky_supernodal(sym)
    b = np.random.default_rng(1).normal(size=(sym.a_perm.n, 4))
    omega = backward_error(sym.a_perm, solve_fused(factor, b), b)
    oracle = backward_error(sym.a_perm, dtrsm_solve(factor, b), b)
    assert omega <= OMEGA_RATIO * oracle, (omega, oracle)
    assert omega < 1e-14


def test_backward_error_is_zero_for_the_exact_solution_and_scale_free():
    a = grid2d_laplacian(5)
    x = np.arange(a.n, dtype=float)[:, None] - 7.0
    b = a.to_scipy() @ x
    assert backward_error(a, x, b) == 0.0
    x_off = x.copy()
    x_off[3] += 1e-3
    omega = backward_error(a, x_off, b)
    assert omega > 0.0
    assert backward_error(a, 8.0 * x_off, 8.0 * b) == omega
