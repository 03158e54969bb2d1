import math

import pytest

from repro.analysis.isoefficiency import (
    efficiency_of,
    fit_growth_exponent,
    isoefficiency_curve,
)
from repro.analysis.models import (
    dense_trisolve_model,
    figure5_table,
    sparse_trisolve_model_2d,
    sparse_trisolve_model_3d,
    trisolve_overhead_2d,
    trisolve_overhead_3d,
)
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec


class TestClosedFormModels:
    def spec(self):
        return cray_t3d()

    def test_2d_model_decreases_then_increases_in_p(self):
        """Equation 1: work term shrinks with p, O(p) term eventually wins."""
        spec = self.spec()
        n = 4096
        times = [sparse_trisolve_model_2d(spec, n, p) for p in (1, 4, 16, 64, 1024, 8192)]
        assert times[1] < times[0]
        assert times[-1] > times[-2]  # past the sweet spot

    def test_3d_model_same_shape(self):
        spec = self.spec()
        n = 30**3
        times = [sparse_trisolve_model_3d(spec, n, p) for p in (1, 16, 8192, 200_000)]
        assert times[1] < times[0]
        assert times[3] > times[2]  # the O(p) term eventually dominates

    def test_dense_model_work_term(self):
        spec = MachineSpec(t_s=0.0, t_w=0.0, t_call=0.0, blas3_factor=1.0)
        t1 = dense_trisolve_model(spec, 1000, 1)
        t4 = dense_trisolve_model(spec, 1000, 4)
        assert t1 / t4 == pytest.approx(4.0)

    def test_nrhs_multiplies_all_terms(self):
        """Paper: with m right-hand sides every term in Eq. 1-2 scales by m."""
        spec = self.spec().with_(t_call=0.0)
        base = sparse_trisolve_model_2d(spec, 4096, 16, nrhs=1)
        big = sparse_trisolve_model_2d(spec, 4096, 16, nrhs=8)
        # BLAS-3 effect makes the work term cheaper per RHS, so growth is
        # between 1x and 8x
        assert base < big < 8 * base

    def test_overheads_positive_and_growing(self):
        spec = self.spec()
        o2 = [trisolve_overhead_2d(spec, 4096, p) for p in (2, 8, 32)]
        o3 = [trisolve_overhead_3d(spec, 27000, p) for p in (2, 8, 32)]
        assert all(x > 0 for x in o2 + o3)
        assert o2[2] > o2[0] and o3[2] > o3[0]

    def test_overhead_dominant_term_is_p_squared(self):
        """For fixed N, T_o ~ p^2 at large p (Equations 4 and 8)."""
        spec = self.spec()
        n = 4096
        o_small = trisolve_overhead_2d(spec, n, 256)
        o_big = trisolve_overhead_2d(spec, n, 1024)
        ratio = o_big / o_small
        assert 8.0 < ratio < 20.0  # ~(1024/256)^2 = 16 once the p-term dominates

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sparse_trisolve_model_2d(self.spec(), 0, 4)
        with pytest.raises(ValueError):
            dense_trisolve_model(self.spec(), 100, 0)


class TestFigure5Table:
    def test_all_combinations_present(self):
        rows = figure5_table()
        assert len(rows) == 6
        combos = {(r.matrix_type, r.partitioning.split(" ")[0]) for r in rows}
        assert ("dense", "1-D") in combos and ("sparse-3d", "2-D") in combos

    def test_one_d_solve_scalable_two_d_not(self):
        for r in figure5_table():
            if r.partitioning.startswith("1-D"):
                assert r.solve_iso != "unscalable"
            else:
                assert r.solve_iso == "unscalable"

    def test_overall_dominated_by_factorization(self):
        for r in figure5_table():
            assert r.overall_iso == r.factor_iso


class TestIsoefficiencyFitting:
    def test_exponent_of_synthetic_quadratic(self):
        pts = [(p, 3.0 * p * p) for p in (2, 4, 8, 16)]
        assert fit_growth_exponent(pts) == pytest.approx(2.0, abs=1e-9)

    def test_exponent_of_synthetic_p32(self):
        pts = [(p, p ** 1.5) for p in (2, 4, 8, 16)]
        assert fit_growth_exponent(pts) == pytest.approx(1.5, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([(2, 4.0)])

    def test_curve_with_analytic_runner(self):
        """Use the closed-form 2-D model as the runner: the fitted exponent
        must come out ~2 (Equation 5)."""
        spec = cray_t3d()

        def runner(size, p):
            n = size * size
            w = 2.0 * n * math.log2(max(n, 2))
            ts = sparse_trisolve_model_2d(spec, n, 1)
            tp = sparse_trisolve_model_2d(spec, n, p)
            return w, ts, tp

        # large p so the O(p^2) overhead term dominates the fit
        pts = isoefficiency_curve(
            runner, ps=(32, 64, 128, 256), target_e=0.5, size_lo=8, size_hi=3000
        )
        k = fit_growth_exponent([(p, w) for p, w, _ in pts])
        assert 1.6 < k < 2.4

    def test_efficiency_of_helper(self):
        def runner(size, p):
            return float(size), 1.0, 1.0 / p  # perfectly scalable

        assert efficiency_of(runner, 10, 8) == pytest.approx(1.0)

    def test_curve_rejects_bad_target(self):
        with pytest.raises(ValueError):
            isoefficiency_curve(lambda s, p: (1.0, 1.0, 1.0), (2,), 1.5, size_lo=1, size_hi=2)
