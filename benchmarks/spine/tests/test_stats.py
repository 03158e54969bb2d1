"""Percentile arithmetic and the tail-support rule."""

import pytest

from benchmarks.spine.stats import median, percentile, scalar, summarize, tail_supported


def test_percentile_interpolates_between_ranks():
    data = [4.0, 1.0, 3.0, 2.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 4.0
    assert percentile(data, 50) == 2.5
    assert percentile(data, 25) == 1.75
    assert median([5.0]) == 5.0
    assert percentile(list(range(101)), 90) == 90.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond():
    assert not tail_supported(99, 90)
    assert tail_supported(100, 90)
    assert not tail_supported(999, 99)
    assert tail_supported(1000, 99)
    assert tail_supported(20, 50)


def test_summarize_flags_unsupported_tails():
    values = [float(v) for v in range(50)]
    p50 = summarize(values, "ms")
    assert (p50["value"], p50["n"], p50["q1"], p50["q3"]) == (24.5, 50, 12.25, 36.75)
    assert p50["resolved"] and p50["unit"] == "ms"
    assert not summarize(values, "ms", 90)["resolved"]
    assert summarize(values * 2, "ms", 90)["resolved"]


def test_scalar_has_the_same_keys_as_summarize():
    assert scalar(3.0, "count").keys() == summarize([3.0], "count").keys()
