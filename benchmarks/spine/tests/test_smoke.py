"""A ``--smoke`` pass over all four workloads in both modes, through the real CLI."""

import json
import statistics
import subprocess
import sys

import pytest

from benchmarks.spine.cli import HERE, ROOT, load_contract


def run_cli(*args, out_dir):
    return subprocess.run(
        [sys.executable, str(HERE / "__main__.py"), *args, "--out-dir", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def compare(a, b):
    return subprocess.run([sys.executable, str(HERE / "__main__.py"), "compare", str(a), str(b)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Untraced and traced result files of one smoke pass each."""
    out = tmp_path_factory.mktemp("spine")
    results = {}
    for trace in (0, 1):
        proc = run_cli("--smoke", "--seed", "5", "--trace", str(trace), out_dir=out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results[trace] = json.loads((out / f"spine-seed5-trace{trace}-run0.json").read_text())
    return out, results


def test_every_workload_emits_exactly_the_contract_metrics(smoke):
    _, results = smoke
    contract = load_contract()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in contract[key]}
        run = results[trace]["workloads"]
        assert list(run) == [w["name"] for w in contract["workloads"]]
        for name, result in run.items():
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert {m: rec["unit"] for m, rec in result["metrics"].items()} == units, name


def test_end_to_end_metrics_are_never_zero(smoke):
    for result in smoke[1][0]["workloads"].values():
        assert all(rec["value"] > 0 for rec in result["metrics"].values())


def test_meta_fingerprints_the_machine(smoke):
    meta = smoke[1][0]["meta"]
    assert {"git_sha", "nproc", "blas", "blas_thread_pin", "python", "numpy", "scipy",
            "seed", "traced"} <= set(meta)
    assert set(meta["blas_thread_pin"].values()) == {"1"}
    assert meta["seed"] == 5 and meta["traced"] is False and smoke[1][1]["meta"]["traced"]


def test_chrome_trace_export(smoke):
    out, results = smoke
    for name in results[1]["workloads"]:
        events = json.loads((out / f"trace-{name}-seed5.json").read_text())["traceEvents"]
        names = {e["name"] for e in events}
        assert {"symbolic.analyze", "exec.fused.forward", "exec.fused.backward"} <= names
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    served = json.loads((out / "trace-serve_3d_mixed-seed5.json").read_text())
    assert "serve.request" in {e["name"] for e in served["traceEvents"]}


def test_traced_decomposition_accounts_for_the_warm_solve(smoke):
    """Permute + forward + backward cover their parent span, and with solve()'s own
    overhead they account for the real solve() measured beside them."""
    out, results = smoke
    name = "steady_3d_nrhs1"
    traced = results[1]["workloads"][name]["metrics"]
    events = json.loads((out / f"trace-{name}-seed5.json").read_text())["traceEvents"]

    def span_ms(span):
        return statistics.median(e["dur"] for e in events if e["name"] == span) / 1e3

    parts = sum(traced[p]["value"] for p in (
        "ordering.permutation.apply_ms", "exec.fused.forward_ms", "exec.fused.backward_ms"))
    overhead = traced["core.solver.overhead_ms"]["value"]
    assert overhead > 0
    assert abs(parts / span_ms("core.solver.solve.decomposed") - 1.0) < 0.10
    assert abs((parts + overhead) / span_ms("core.solver.solve") - 1.0) < 0.10


def test_driver_mode_prints_one_json_object_last(smoke, tmp_path):
    proc = run_cli("--workload", "steady_2d_nrhs16", "--seed", "6", "--seconds", "1",
                   "--trace", "0", "--smoke", out_dir=tmp_path)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert all(set(rec) == {"value", "unit"} for rec in line["metrics"].values())


def test_compare_passes_on_itself_and_fails_past_a_bound(smoke, tmp_path):
    out, _ = smoke
    a = out / "spine-seed5-trace0-run0.json"
    same = compare(a, a)
    assert same.returncode == 0, same.stdout + same.stderr
    slower = json.loads(a.read_text())
    slower["workloads"]["cold_fe3d"]["metrics"]["solve_ms_p50"]["value"] *= 2
    b = tmp_path / "slower.json"
    b.write_text(json.dumps(slower))
    worse = compare(a, b)
    assert worse.returncode == 1 and "PAST BOUND" in worse.stdout
