"""The repo-wide verification gate, its known-bad corpus, and the CLIs."""

from __future__ import annotations

import pytest

from repro.verify.__main__ import main as verify_main
from repro.verify.corpus import known_bad_cases
from repro.verify.gate import (
    run_bad_corpus,
    run_gate,
    run_solver_comm_lint,
    run_source_lint,
    run_structure_checks,
    severity_exit_code,
)


def test_source_lint_is_clean():
    report = run_source_lint()
    assert report.ok, report.render()


def test_structure_battery_is_clean():
    report = run_structure_checks()
    assert report.ok, report.render()


def test_real_solver_programs_lint_clean_and_solve_right():
    report = run_solver_comm_lint(p=4, b=4)
    assert report.ok, report.render()
    assert "spmd-wrong-solution" not in report.rules()


def test_full_gate_clean_and_exit_zero():
    report = run_gate()
    assert report.ok, report.render()
    assert severity_exit_code(report) == 0


@pytest.mark.parametrize("case", known_bad_cases(), ids=lambda c: c.name)
def test_every_bad_case_fires_its_expected_rule(case):
    report = case.run()
    assert not report.ok, f"{case.name} slipped through clean"
    assert case.expect_rules & report.rules(), (
        f"{case.name} fired {sorted(report.rules())}, "
        f"expected one of {sorted(case.expect_rules)}"
    )
    for finding in report.errors():
        assert finding.location, "every error must name a location"


def test_bad_corpus_reports_errors_but_no_regressions():
    report = run_bad_corpus()
    assert not report.ok, "the corpus exists to be caught"
    assert "corpus-missed" not in report.rules(), report.render()


def test_cli_exit_codes(capsys):
    assert verify_main(["--no-solvers"]) == 0
    assert verify_main(["--corpus", "bad"]) == 1
    out = capsys.readouterr().out
    assert "spmd-deadlock-cycle" in out


def test_cli_lint_only(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("assert x\n")
    assert verify_main(["--lint-only", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "lint-bare-assert" in out


def test_main_cli_verify_subcommand(capsys):
    from repro.__main__ import main

    assert main(["verify", "--no-solvers"]) == 0
    assert "clean" in capsys.readouterr().out
