"""Cholesky on a symmetric quasi-definite (KKT-style) matrix.

Such a matrix is nonsingular and symmetric but not positive definite, so
the simplicial Cholesky oracle must refuse it rather than return a factor.
"""

import numpy as np
import pytest

from repro.numeric.frontal import NotPositiveDefiniteError
from repro.numeric.simplicial import cholesky_simplicial
from repro.sparse.build import from_dense
from repro.symbolic.analyze import analyze


class TestLDLTIndefinite:
    @pytest.fixture()
    def quasi_definite(self):
        # A KKT-style symmetric quasi-definite matrix: [[H, B^T], [B, -C]]
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([[1.0, -1.0]])
        c = np.array([[2.0]])
        top = np.hstack([h, b.T])
        bottom = np.hstack([b, -c])
        return from_dense(np.vstack([top, bottom]))

    def test_cholesky_would_fail_here(self, quasi_definite):
        sym = analyze(quasi_definite, method="natural")
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_simplicial(sym)
