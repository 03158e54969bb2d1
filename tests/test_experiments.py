"""Smoke + shape tests for the experiment drivers (using small workloads;
the full paper-scale runs live in benchmarks/)."""

import pytest

from repro.analysis.models import figure5_table
from repro.experiments.fig5 import isoefficiency_experiment
from repro.experiments.fig7 import fig7_rows, format_fig7
from repro.experiments.fig8 import fig8_series, format_fig8
from repro.experiments.matrices import WORKLOADS, get_workload, prepared
from repro.experiments.scaling import scaling_law_experiment


class TestRegistry:
    def test_five_paper_matrices_registered(self):
        paper = {w.paper_name for w in WORKLOADS.values()}
        assert {"BCSSTK15", "BCSSTK31", "HSCT21954", "CUBE35", "COPTER2"} <= paper

    def test_get_workload_unknown(self):
        with pytest.raises(ValueError):
            get_workload("bcsstk99")

    def test_kinds_match_paper_classes(self):
        assert get_workload("bcsstk15").kind == "2d"
        assert get_workload("cube35").kind == "3d"

    def test_prepared_caches_factorization(self):
        s1 = prepared("grid2d-small", 1)
        s2 = prepared("grid2d-small", 4)
        assert s1.factor is s2.factor  # shared, not recomputed
        assert s2.p == 4

    def test_prepared_solver_works(self, rng):
        solver = prepared("grid2d-small", 4)
        b = rng.normal(size=solver.a.n)
        _, rep = solver.solve(b)
        assert rep.residual < 1e-10


class TestFig7Driver:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig7_rows("grid2d-small", ps=(1, 4), nrhs_list=(1, 10))

    def test_row_grid_complete(self, rows):
        assert len(rows) == 4
        assert {(r.p, r.nrhs) for r in rows} == {(1, 1), (1, 10), (4, 1), (4, 10)}

    def test_all_residuals_tiny(self, rows):
        assert all(r.residual < 1e-10 for r in rows)

    def test_parallel_faster_than_serial(self, rows):
        t1 = next(r for r in rows if (r.p, r.nrhs) == (1, 1)).fbsolve_seconds
        t4 = next(r for r in rows if (r.p, r.nrhs) == (4, 1)).fbsolve_seconds
        assert t4 < t1

    def test_nrhs_raises_mflops(self, rows):
        m1 = next(r for r in rows if (r.p, r.nrhs) == (1, 1)).fbsolve_mflops
        m10 = next(r for r in rows if (r.p, r.nrhs) == (1, 10)).fbsolve_mflops
        assert m10 > 2 * m1

    def test_redistribution_ratio_bounded(self, rows):
        """Paper Section 4: redistribution <= 0.9x FBsolve time (NRHS=1)."""
        for r in rows:
            if r.nrhs == 1:
                assert r.redistribution_ratio <= 0.9

    def test_format_contains_paper_fields(self, rows):
        text = format_fig7(rows)
        assert "Factorization MFLOPS" in text
        assert "FBsolve time" in text
        assert "NRHS" in text


class TestFig8Driver:
    @pytest.fixture(scope="class")
    def series(self):
        return fig8_series("grid2d-small", ps=(1, 4, 16), nrhs_list=(1, 30))

    def test_series_shapes(self, series):
        assert len(series) == 2
        assert all(len(s.mflops) == 3 for s in series)

    def test_higher_nrhs_curve_dominates(self, series):
        lo = next(s for s in series if s.nrhs == 1)
        hi = next(s for s in series if s.nrhs == 30)
        assert all(h > l for h, l in zip(hi.mflops, lo.mflops))

    def test_performance_grows_with_p_initially(self, series):
        for s in series:
            assert s.mflops[1] > s.mflops[0]

    def test_format(self, series):
        text = format_fig8(series)
        assert "NRHS=1" in text and "NRHS=30" in text


class TestIsoefficiencyExperiment:
    def test_simulated_trisolve_exponent_superlinear(self):
        """At small simulated scales the exponent is noisy, but it must
        already be clearly superlinear (the paper's W ~ p^2 trend)."""
        res = isoefficiency_experiment(
            kind="2d", system="trisolve", ps=(2, 4, 8), target_e=0.55, size_lo=4, size_hi=64
        )
        assert res.exponent > 1.3

    @pytest.mark.parametrize("kind,expect", [("2d", 2.0), ("3d", 2.0)])
    def test_model_trisolve_exponent_is_two(self, kind, expect):
        """Equations 5/9: W ~ p^2 for the parallel triangular solver."""
        res = isoefficiency_experiment(
            kind=kind, system="trisolve-model", ps=(64, 128, 256, 512, 1024), target_e=0.5
        )
        assert res.exponent == pytest.approx(expect, abs=0.35)

    def test_factor_scales_better_than_solve(self):
        """Figure 5: factorization isoefficiency p^1.5 beats the solver's
        p^2 (asymptotically, via the closed-form models)."""
        solve = isoefficiency_experiment(
            kind="2d", system="trisolve-model", ps=(64, 128, 256, 512, 1024), target_e=0.5
        )
        factor = isoefficiency_experiment(
            kind="2d", system="factor-model", ps=(64, 128, 256, 512, 1024), target_e=0.5
        )
        assert factor.exponent == pytest.approx(1.5, abs=0.3)
        assert factor.exponent < solve.exponent - 0.2

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            isoefficiency_experiment(system="sorting")


class TestScalingLaws:
    def test_measured_tracks_model_shape(self):
        pts = scaling_law_experiment(kind="2d", sizes=(12, 20), ps=(1, 4, 16))
        # at fixed N, both measured and modeled improve from p=1 to p=4
        for n in {p.n for p in pts}:
            series = sorted((p for p in pts if p.n == n), key=lambda r: r.p)
            assert series[1].measured_seconds < series[0].measured_seconds
            assert series[1].model_seconds < series[0].model_seconds

    def test_larger_problems_take_longer(self):
        pts = scaling_law_experiment(kind="2d", sizes=(12, 20), ps=(1,))
        by_n = sorted(pts, key=lambda r: r.n)
        assert by_n[1].measured_seconds > by_n[0].measured_seconds


class TestFigure5:
    def test_table_regenerates(self):
        assert len(figure5_table()) == 6
