"""``python -m benchmarks.spine compare A.json B.json``.

Prints every end-to-end metric x workload of two result files with B's
relative difference from A, signed so that positive means worse, next to
the bound recorded in ``BENCHMARK.json``.  A row is *unresolved* when
either side's value is a tail percentile with too few samples beyond it.
Exits 1 when any row is worse than its bound, 2 when a row is missing.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def worsening(a: float, b: float, better: str) -> float:
    """B's relative change from A as a share of A; positive is worse."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare_files(path_a: Path, path_b: Path, contract: dict) -> int:
    runs = [json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b)]
    status = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            recs = [run.get(workload, {}).get("metrics", {}).get(spec["name"])
                    for run in runs]
            if None in recs:
                print(f"{workload:<18} {spec['name']:<22} missing from a result file")
                status = max(status, 2)
                continue
            worse = worsening(recs[0]["value"], recs[1]["value"], spec["better"])
            verdict = "ok"
            if worse > spec["bound"]:
                verdict = "PAST BOUND"
                status = max(status, 1)
            if not (recs[0]["resolved"] and recs[1]["resolved"]):
                verdict += " (unresolved)"
            print(f"{workload:<18} {spec['name']:<22} {recs[0]['value']:>12.5g} "
                  f"{recs[1]['value']:>12.5g} {worse:>+9.1%} {spec['bound']:>6.0%}  {verdict}")
    return status


def compare_main(argv: list[str]) -> int:
    from .cli import load_contract

    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine compare",
                                     description=__doc__)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return compare_files(args.a, args.b, load_contract())
