"""Dense pipelined triangular solver (the Section 3.3 comparator)."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.core.backward import parallel_backward
from repro.core.dense import _as_single_supernode_factor, dense_forward, dense_trisolve_time
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import ProcSet


@pytest.fixture(scope="module")
def dense_l(request):
    rng = np.random.default_rng(11)
    n = 48
    m = rng.normal(size=(n, n))
    return np.tril(m) + n * np.eye(n)


class TestDenseForward:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_scipy(self, dense_l, p, rng):
        b = rng.normal(size=(dense_l.shape[0], 3))
        y, _ = dense_forward(dense_l, b, cray_t3d(), p, b=4)
        np.testing.assert_allclose(y, solve_triangular(dense_l, b, lower=True), atol=1e-10)

    @pytest.mark.parametrize("variant", ["column", "row"])
    def test_variants_agree(self, dense_l, variant, rng):
        b = rng.normal(size=dense_l.shape[0])
        y, _ = dense_forward(dense_l, b, cray_t3d(), 4, b=4, variant=variant)
        np.testing.assert_allclose(y, solve_triangular(dense_l, b, lower=True), atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dense_forward(np.zeros((3, 4)), np.zeros(3), cray_t3d(), 2)

    def test_rejects_bad_p(self, dense_l):
        with pytest.raises(ValueError):
            dense_forward(dense_l, np.zeros(dense_l.shape[0]), cray_t3d(), 3)


class TestDenseBackward:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_scipy(self, dense_l, p, rng):
        """The pipelined backward sweep over the dense triangle as one supernode."""
        b = rng.normal(size=(dense_l.shape[0], 2))
        factor = _as_single_supernode_factor(dense_l)
        x, _ = parallel_backward(factor, [ProcSet(0, p)], cray_t3d(), b, b=4, nproc=p)
        np.testing.assert_allclose(
            x, solve_triangular(dense_l, b, lower=True, trans="T"), atol=1e-10
        )


class TestDenseScalability:
    def test_speedup_with_p(self):
        spec = cray_t3d()
        t1 = dense_trisolve_time(96, spec, 1, b=4)
        t8 = dense_trisolve_time(96, spec, 8, b=4)
        assert t8 < t1
        assert t1 / t8 < 8.0  # never superlinear

    def test_ideal_machine_near_critical_path(self):
        """With free communication, the pipeline's makespan approaches the
        2n-step wavefront bound (paper Figure 3a)."""
        spec = cray_t3d().with_(t_s=0.0, t_w=0.0, t_h=0.0, t_call=0.0)
        t1 = dense_trisolve_time(64, spec, 1, b=4)
        t16 = dense_trisolve_time(64, spec, 16, b=4)
        assert t16 < t1 / 4  # far better than 4x on 16 procs

    def test_same_isoefficiency_class_as_sparse(self):
        """Section 3.3: the dense comm time is b(p-1) + N per solve; at
        fixed N, going from p to 2p must not halve the time once the
        pipeline-fill term dominates."""
        spec = cray_t3d()
        n = 64
        t8 = dense_trisolve_time(n, spec, 8, b=4)
        t64 = dense_trisolve_time(n, spec, 64, b=4)
        assert t64 > t8 / 8  # efficiency strictly drops: O(p) fill term
