"""CLI (`python -m repro`) smoke tests."""

import re

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.matrix == "grid2d" and args.p == 16

    def test_unknown_matrix_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--matrix", "hilbert"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "BCSSTK15" in out and "CUBE35" in out

    def test_solve_small(self, capsys):
        assert main(["solve", "--matrix", "grid2d", "--size", "8", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "residual" in out and "FBsolve" in out

    def test_solve_prints_the_set_up_stage_timers(self, capsys):
        assert main(["solve", "--matrix", "grid2d", "--size", "8", "--p", "2"]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("set-up:"))
        stages = re.findall(r"(\w+) ([0-9.]+) ms", line)
        assert [name for name, _ in stages] == ["analyze", "cholesky", "mapping", "verify"]
        assert all(float(ms) >= 0.0 for _, ms in stages)

    def test_solve_with_refinement(self, capsys):
        assert main(
            ["solve", "--matrix", "fe2d", "--size", "7", "--p", "2", "--refine", "1"]
        ) == 0
        assert "FBsolve" in capsys.readouterr().out

    def test_solve_serial_backend(self, capsys):
        assert main(
            ["solve", "--matrix", "grid2d", "--size", "10", "--p", "2",
             "--backend", "serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=serial" in out and "wall-clock" in out

    def test_solve_fused_backend(self, capsys):
        assert main(
            ["solve", "--matrix", "grid2d", "--size", "10", "--p", "2",
             "--nrhs", "4", "--backend", "fused"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=fused" in out and "wall-clock" in out
        # verify=True is the solver default, so the fused solve must
        # carry the determinism certificate of its certified program.
        assert "schedule certificate:" in out

    def test_solve_block_reaches_the_block_size(self, capsys):
        lines = []
        for block in ("2", "8"):
            assert main(["solve", "--size", "16", "--p", "4", "--block", block]) == 0
            out = capsys.readouterr().out
            lines.append(next(ln for ln in out.splitlines() if "forward" in ln))
        assert lines[0] != lines[1]

    def test_solve_invalid_backend_rejected(self):
        for backend in ("gpu", "threads"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["solve", "--backend", backend])

    def test_serve_demo(self, capsys):
        assert main(
            ["serve-demo", "--matrix", "grid2d", "--size", "5",
             "--requests", "12", "--submitters", "2", "--max-batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "12 submitted, 12 completed" in out and "bitwise-equal" in out

    def test_schedules(self, capsys):
        assert main(["schedules", "--nb", "5", "--tb", "3", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out and "Figure 4" in out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--matrix", "grid2d-small", "--p", "1", "4", "--nrhs", "1"]) == 0
        assert "Factorization MFLOPS" in capsys.readouterr().out

    def test_fig8_small(self, capsys):
        assert main(["fig8", "--matrix", "grid2d-small", "--p", "1", "4", "--nrhs", "1", "5"]) == 0
        assert "MFLOPS vs p" in capsys.readouterr().out
