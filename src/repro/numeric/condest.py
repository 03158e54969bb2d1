"""Condition-number estimation via the factored solve (Hager-Higham).

Estimates ``||A^{-1}||_1`` using only triangular solves with the existing
factor (the standard LAPACK-style condition estimator), giving
``cond_1(A) ~ ||A||_1 * ||A^{-1}||_1`` without ever forming the inverse.
Production sparse solvers (the WSMP lineage this paper fed into) expose
exactly this diagnostic next to the solve.
"""

from __future__ import annotations

import numpy as np

from repro.numeric.supernodal import SupernodalFactor
from repro.numeric.trisolve import solve_supernodal
from repro.sparse.csc import SymCSC
from repro.symbolic.analyze import SymbolicFactor


def one_norm(a: SymCSC) -> float:
    """Exact 1-norm (max absolute column sum) of the symmetric matrix."""
    sums = np.zeros(a.n)
    for j in range(a.n):
        rows, vals = a.column(j)
        av = np.abs(vals)
        sums[j] += av.sum()
        strict = rows != j
        sums[rows[strict]] += av[strict]
    return float(sums.max()) if a.n else 0.0


def inverse_norm_estimate(sym: SymbolicFactor, factor: SupernodalFactor) -> float:
    """Hager's power-iteration estimate of ``||A^{-1}||_1`` (at most 8 steps).

    Because A is symmetric, one solve per iteration suffices (the
    transpose solve equals the solve).
    """
    n = sym.n
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(8):
        y = solve_supernodal(factor, x)
        new_est = float(np.abs(y).sum())
        xi = np.sign(y)
        xi[xi == 0] = 1.0
        z = solve_supernodal(factor, xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= float(z @ x):
            est = max(est, new_est)
            break
        est = max(est, new_est)
        x = np.zeros(n)
        x[j] = 1.0
    return est


def condest(sym: SymbolicFactor, factor: SupernodalFactor, a: SymCSC) -> float:
    """1-norm condition estimate of the *original* matrix A.

    The factor is of ``P A P^T``; permutation does not change the 1-norm
    of the inverse (it permutes rows/columns), so the estimate composes
    directly with ``one_norm(a)``.
    """
    return one_norm(a) * inverse_norm_estimate(sym, factor)
