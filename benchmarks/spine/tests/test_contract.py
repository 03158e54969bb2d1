"""BENCHMARK.json obeys the driver's limits and agrees with the code's registries."""

import re

from benchmarks.spine.cli import load_contract
from benchmarks.spine.layers import PER_LAYER_UNITS, SPAN_MILLIS, SPAN_SECONDS
from benchmarks.spine.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    c = load_contract()
    assert set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                      "per_layer"}
    assert c["paths"] == ["benchmarks/spine"]
    assert isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60
    assert 2 <= len(c["workloads"]) <= 8
    assert 1 <= len(c["end_to_end"]) <= 16
    assert 1 <= len(c["per_layer"]) <= 128
    assert all(arg.startswith("benchmarks/spine") or "/" not in arg for arg in c["command"])


def test_names_units_and_bounds():
    c = load_contract()
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in c[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in c["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in c["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in c["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in c["end_to_end"] + c["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in c["end_to_end"])


def test_registries_match_the_contract():
    c = load_contract()
    assert [w["name"] for w in c["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in c["per_layer"]} == PER_LAYER_UNITS
    assert set(SPAN_SECONDS.values()) | set(SPAN_MILLIS.values()) <= set(PER_LAYER_UNITS)
