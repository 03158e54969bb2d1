"""Repo-specific AST lint rules."""

from __future__ import annotations

from repro.verify.findings import Severity
from repro.verify.lint import lint_source


def test_unseeded_default_rng():
    report = lint_source("import numpy as np\nrng = np.random.default_rng()\n")
    assert "lint-unseeded-random" in report.rules()


def test_seeded_default_rng_is_fine():
    report = lint_source("import numpy as np\nrng = np.random.default_rng(7)\n")
    assert "lint-unseeded-random" not in report.rules()


def test_legacy_global_random():
    report = lint_source("import numpy as np\nx = np.random.rand(3)\n")
    assert "lint-unseeded-random" in report.rules()


def test_legacy_random_allowed_in_generators_module():
    report = lint_source(
        "import numpy as np\nx = np.random.rand(3)\n",
        filename="src/repro/sparse/generators.py",
    )
    assert "lint-unseeded-random" not in report.rules()


def test_numpy_alias_tracking():
    report = lint_source("import numpy as xp\nxp.random.seed(0)\n")
    assert "lint-unseeded-random" in report.rules()


def test_csc_index_store_mutation():
    report = lint_source("def f(a):\n    a.indices[0] = 3\n")
    assert "lint-csc-mutation" in report.rules()


def test_csc_mutating_method():
    report = lint_source("def f(a):\n    a.indptr.sort()\n")
    assert "lint-csc-mutation" in report.rules()


def test_reading_csc_arrays_is_fine():
    report = lint_source("def f(a):\n    return a.indices[0] + a.indptr[1]\n")
    assert "lint-csc-mutation" not in report.rules()


def test_bare_assert():
    report = lint_source("assert x > 0\n")
    assert "lint-bare-assert" in report.rules()


def test_assert_with_message_is_fine():
    report = lint_source("assert x > 0, 'x must be positive'\n")
    assert "lint-bare-assert" not in report.rules()


def test_unused_import_is_warning():
    report = lint_source("import os\n")
    (finding,) = [f for f in report if f.rule == "lint-unused-import"]
    assert finding.severity is Severity.WARNING
    assert report.ok


def test_dunder_all_export_counts_as_use():
    report = lint_source("from os import path\n__all__ = ['path']\n")
    assert "lint-unused-import" not in report.rules()


def test_string_annotation_counts_as_use():
    src = "from typing import Mapping\n\ndef f(x: 'Mapping[str, int]') -> None:\n    pass\n"
    report = lint_source(src)
    assert "lint-unused-import" not in report.rules()


def test_noqa_suppresses_the_line():
    report = lint_source("assert x  # noqa\n")
    assert len(report) == 0


def test_syntax_error_reported_not_raised():
    report = lint_source("def f(:\n", filename="broken.py")
    (finding,) = [f for f in report if f.rule == "lint-syntax-error"]
    assert finding.location.startswith("broken.py:")


def test_findings_carry_file_and_line():
    report = lint_source("import numpy as np\n\n\nx = np.random.rand(2)\n", filename="m.py")
    (finding,) = [f for f in report if f.rule == "lint-unseeded-random"]
    assert finding.location == "m.py:4"
