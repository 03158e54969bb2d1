"""CLI for the verification gate: ``python -m repro.verify``.

Exit codes: 0 — no ERROR findings; 1 — findings (including, by design,
every run against the known-bad corpus); 2 — a known-bad case was *not*
caught (checker regression).

Examples
--------
``python -m repro.verify``
    Full repo gate: source lint + structural invariants + schedule
    certification of the execution-plan battery + SPMD solver
    communication lint.
``python -m repro.verify --corpus bad``
    Run the seeded known-bad corpus (including the execution-plan
    mutants); prints each detected defect with its rule and location
    and exits non-zero.
``python -m repro.verify --json``
    Same gate, but emit the findings as schema-stable JSON
    (``repro-verify-report/1``) for CI artifacts and cross-PR diffing.
``python -m repro.verify --lint-only src/repro tests``
    Only the AST lint, over explicit paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.verify.findings import Report
from repro.verify.gate import (
    format_gate_output,
    run_bad_corpus,
    run_gate,
    run_source_lint,
    severity_exit_code,
)
from repro.verify.lint import lint_paths

#: Schema identifier for ``--json`` output; bump on breaking changes.
JSON_SCHEMA = "repro-verify-report/1"


def report_to_json(report: Report, *, mode: str, exit_code: int) -> dict:
    """Schema-stable machine-readable form of a gate report.

    The layout is part of the repo's CI contract: ``schema`` names the
    version, ``findings`` preserves checker order, and each finding
    carries exactly the four :class:`~repro.verify.findings.Finding`
    fields.  Tools diffing gate output across PRs rely on these keys
    staying put.
    """
    return {
        "schema": JSON_SCHEMA,
        "mode": mode,
        "ok": report.ok,
        "exit_code": exit_code,
        "summary": {
            "findings": len(report),
            "errors": len(report.errors()),
            "warnings": len(report.warnings()),
        },
        "findings": [
            {
                "rule": f.rule,
                "severity": f.severity.value,
                "location": f.location,
                "message": f.message,
            }
            for f in report
        ],
    }


def _emit(report: Report, *, mode: str, header: str, exit_code: int, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_to_json(report, mode=mode, exit_code=exit_code), indent=2))
    else:
        print(format_gate_output(report, header=header))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser of ``python -m repro.verify``."""
    parser = argparse.ArgumentParser(
        prog="repro.verify", description="repo-wide static verification gate"
    )
    parser.add_argument(
        "--corpus",
        choices=["repo", "bad"],
        default="repo",
        help="'repo' (default): verify the clean repo; 'bad': run the "
        "seeded known-bad corpus (must exit non-zero)",
    )
    parser.add_argument(
        "--lint-only",
        nargs="*",
        metavar="PATH",
        default=None,
        help="run only the AST lint, over the given files/directories "
        "(default: the installed package source)",
    )
    parser.add_argument(
        "--no-solvers",
        action="store_true",
        help="skip the SPMD solver communication-lint section of the gate",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as schema-stable JSON (repro-verify-report/1) "
        "instead of the human-readable listing",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the selected gate, print its report, return the exit code."""
    args = build_parser().parse_args(argv)
    if args.lint_only is not None:
        paths = [Path(p) for p in args.lint_only] or None
        report = lint_paths(paths) if paths else run_source_lint()
        code = severity_exit_code(report)
        _emit(report, mode="lint", header="source lint", exit_code=code,
              as_json=args.json)
        return code
    if args.corpus == "bad":
        report = run_bad_corpus()
        # Findings are expected here: the corpus exists to be caught, so
        # the only healthy outcome is a non-zero exit full of findings.
        code = 2 if any(f.rule == "corpus-missed" for f in report) else 1
        _emit(report, mode="corpus-bad", header="known-bad corpus",
              exit_code=code, as_json=args.json)
        return code
    report = run_gate(include_solvers=not args.no_solvers)
    code = severity_exit_code(report)
    _emit(report, mode="gate", header="verification gate", exit_code=code,
          as_json=args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
