"""Elementary sparse linear-algebra operations used for verification.

These are deliberately simple — the production paths all go through the
supernodal kernels; these hand the product to ``scipy.sparse`` so that
every solver variant can be checked against an independent computation
(the default ``check=True`` residual, iterative refinement) at a cost
well below the solve's.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import LowerCSC, SymCSC


def matvec(a: SymCSC, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for a symmetric matrix stored as a lower triangle.

    *x* may be a vector of length n or an ``(n, m)`` block of vectors.
    One sparse product against the full symmetric matrix, which the
    :class:`SymCSC` assembles once (cached on it).
    """
    return a._full @ np.asarray(x, dtype=np.float64)


def lower_triangular_matvec(l: LowerCSC, x: np.ndarray) -> np.ndarray:
    """``L @ x`` for a lower-triangular CSC matrix."""
    return l.to_scipy() @ np.asarray(x, dtype=np.float64)


def residual_norm(a: SymCSC, x: np.ndarray, b: np.ndarray) -> float:
    """``||A x - b||_2`` (Frobenius norm for multiple right-hand sides)."""
    return float(np.linalg.norm(matvec(a, x) - b))


def relative_residual(a: SymCSC, x: np.ndarray, b: np.ndarray) -> float:
    """``||A x - b|| / ||b||`` with a floor to avoid division by zero."""
    denom = max(float(np.linalg.norm(b)), np.finfo(float).tiny)
    return residual_norm(a, x, b) / denom
