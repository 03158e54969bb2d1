"""Hager-Higham condition estimation over the supernodal factor."""

import numpy as np
import pytest

from repro.numeric.condest import condest, inverse_norm_estimate, one_norm
from repro.sparse.build import from_dense
from repro.symbolic.analyze import analyze
from repro.numeric.supernodal import cholesky_supernodal


class TestConditionEstimate:
    def test_one_norm_exact(self):
        a = from_dense(np.array([[2.0, -1.0], [-1.0, 3.0]]))
        assert one_norm(a) == 4.0

    def test_identity_condition_is_one(self):
        a = from_dense(np.eye(6) * 2.0)
        sym = analyze(a, method="natural")
        f = cholesky_supernodal(sym)
        assert condest(sym, f, a) == pytest.approx(1.0)

    def test_estimate_close_to_true_condition(self, grid8):
        sym = analyze(grid8)
        f = cholesky_supernodal(sym)
        est = condest(sym, f, grid8)
        dense = grid8.to_dense()
        true = np.linalg.norm(dense, 1) * np.linalg.norm(np.linalg.inv(dense), 1)
        # Hager's estimator is a lower bound, rarely off by more than ~3x
        assert true / 3 <= est <= true * 1.001

    def test_ill_conditioned_detected(self):
        d = np.diag([1.0, 1.0, 1e-8])
        a = from_dense(d)
        sym = analyze(a, method="natural")
        f = cholesky_supernodal(sym)
        assert condest(sym, f, a) > 1e7

    def test_inverse_norm_lower_bound(self, grid8):
        sym = analyze(grid8)
        f = cholesky_supernodal(sym)
        est = inverse_norm_estimate(sym, f)
        true = np.linalg.norm(np.linalg.inv(grid8.to_dense()), 1)
        assert est <= true * 1.001
        assert est >= true / 3
