"""Command line of the spine: run workloads, write result files, compare two runs.

One workload named with ``--workload`` runs in this process and prints, as
the last line of standard output, the JSON object the benchmark driver
reads.  Several workloads (the default: all four) each run in a fresh
subprocess of this same entry point, so no workload inherits another's
caches, heap or peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"
SMOKE_SECONDS = 1.0


def load_contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


# ------------------------------------------------------------------ meta
def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository
    return out.stdout.strip()


def machine_meta(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    from . import BLAS_PIN

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_PIN},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
    }


# ------------------------------------------------------------------ running
def run_one(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in this process; returns its result record."""
    from .layers import run_traced
    from .workloads import WORKLOADS, Sizing, run_untraced

    sizing = Sizing(seconds=args.seconds, smoke=args.smoke)
    result = (run_traced if args.trace else run_untraced)(WORKLOADS[name], args.seed, sizing)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    chrome = result.pop("chrome_trace", None)
    if chrome is not None:
        path = args.out_dir / f"trace-{name}-seed{args.seed}.json"
        path.write_text(json.dumps(chrome))
        print(f"chrome trace: {path}")
    result["correct"] = result["failed"] == 0
    return result


def run_in_subprocess(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh interpreter; returns its result record."""
    cmd = [sys.executable, str(HERE / "__main__.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(args.out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    path = args.out_dir / _result_name(name, args)
    path.unlink(missing_ok=True)  # never read a previous run's file
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900)
    if not path.exists():
        raise RuntimeError(f"workload {name} wrote no result (exit {proc.returncode})")
    return json.loads(path.read_text())["workloads"][name]


def _result_name(name: str, args: argparse.Namespace) -> str:
    return f"run-{name}-seed{args.seed}-trace{args.trace}.json"


def write_result(path: Path, meta: dict, workloads: dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "workloads": workloads}, indent=1))


def print_table(workloads: dict[str, dict]) -> None:
    for name, result in workloads.items():
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, rec in result["metrics"].items():
            flag = "" if rec["resolved"] else "  (unresolved: too few samples beyond)"
            print(f"  {metric:<40} {rec['value']:>14.6g} {rec['unit']:<8} "
                  f"n={rec['n']:<6} q1={rec['q1']:.6g} q3={rec['q3']:.6g}{flag}")


def driver_line(result: dict) -> str:
    """The one JSON object the benchmark driver reads from the last stdout line."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": rec["value"], "unit": rec["unit"]}
                    for name, rec in result["metrics"].items()},
    })


def run_main(argv: list[str]) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fixes every RHS pool and arrival schedule")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each workload measures "
                             f"(default {contract['run_seconds']}, smoke {SMOKE_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="span every layer call and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: exercises every path in seconds, measures nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times; 2 also compares the runs")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    meta = machine_meta(args)

    if args.workload and len(args.workload) == 1 and args.repeat == 1:
        name = args.workload[0]
        result = run_one(name, args)
        write_result(args.out_dir / _result_name(name, args), meta, {name: result})
        print_table({name: result})
        print(driver_line(result))
        return 0 if result["correct"] else 1

    written = []
    correct = True
    for rep in range(args.repeat):
        workloads = {name: run_in_subprocess(name, args)
                     for name in (args.workload or names)}
        print_table(workloads)
        correct &= all(r["correct"] for r in workloads.values())
        path = args.out_dir / f"spine-seed{args.seed}-trace{args.trace}-run{rep}.json"
        write_result(path, meta, workloads)
        print(f"result file: {path}")
        written.append(path)
    if not correct:
        print("FAILED: at least one output failed verification", file=sys.stderr)
        return 1
    if args.repeat == 2 and not args.trace:
        from .compare import compare_files

        return compare_files(written[0], written[1], contract)
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from .compare import compare_main

        return compare_main(argv[1:])
    return run_main(argv)
