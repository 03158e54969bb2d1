"""The examples must actually run (the fast ones, as smoke tests)."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "residual" in out
        assert "FBsolve total" in out

    def test_elimination_tree_demo(self, capsys):
        out = run_example("elimination_tree_demo.py", capsys)
        assert "Figure 1(a)" in out
        assert "supernode" in out

    def test_pipeline_trace(self, capsys):
        out = run_example("pipeline_trace.py", capsys)
        assert "makespan" in out
        assert "P0" in out

    def test_spmd_programming(self, capsys):
        out = run_example("spmd_programming.py", capsys)
        assert "ring all-reduce" in out
        assert "SPMD" in out

    def test_all_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 6
        for script in scripts:
            text = script.read_text()
            assert text.startswith('"""'), f"{script.name} lacks a module docstring"
            assert "__main__" in text, f"{script.name} is not runnable"
