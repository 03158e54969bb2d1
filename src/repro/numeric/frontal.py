"""Dense kernels used inside supernodes.

Thin wrappers around LAPACK/BLAS via numpy/scipy with uniform error
handling; isolated here so the simulated machine model can charge the same
flop counts that these kernels actually execute.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro.util.validation import check_square


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a frontal matrix fails dense Cholesky."""


def dense_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a dense SPD matrix (only the lower triangle
    of *a* is referenced)."""
    check_square(a.shape, "frontal block")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def trsm_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` with L dense lower triangular; b may be a matrix."""
    check_square(l.shape, "triangular block")
    if l.shape[0] == 0:
        return b.copy()
    return solve_triangular(l, b, lower=True, check_finite=False)


def trsm_lower_t(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = b`` (the backward-substitution kernel)."""
    check_square(l.shape, "triangular block")
    if l.shape[0] == 0:
        return b.copy()
    return solve_triangular(l, b, lower=True, trans="T", check_finite=False)
