"""Sample statistics for the spine: medians, quartiles, guarded percentiles."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: A percentile is reported as resolved only when at least this many
#: samples lie beyond it (choosing-metrics guide, section 1).
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between ranks."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_supported(n: int, q: float) -> bool:
    """Whether *n* samples leave ``MIN_TAIL_SAMPLES`` beyond percentile *q*."""
    return n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def summarize(values: Sequence[float], unit: str, q: float = 50.0) -> dict:
    """One metric record: the *q*-th percentile with count and quartiles.

    ``resolved`` is false when *q* is a tail percentile the sample is too
    small to support; the value is still reported, flagged.
    """
    return {
        "value": percentile(values, q),
        "unit": unit,
        "n": len(values),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
        "resolved": q == 50.0 or tail_supported(len(values), q),
    }


def scalar(value: float, unit: str, n: int = 1) -> dict:
    """A metric record for a single number (a count, a ratio, a total)."""
    return {"value": value, "unit": unit, "n": n, "q1": value, "q3": value,
            "resolved": True}
