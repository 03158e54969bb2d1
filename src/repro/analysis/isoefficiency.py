"""Empirical isoefficiency estimation.

The isoefficiency function f_E(p) is the rate at which problem size W must
grow with p to keep efficiency fixed at E (paper Section 3.2).  Given any
runner that maps a size parameter to (serial time, parallel time), these
helpers find the size achieving a target efficiency at each p and fit the
growth exponent ``W ~ p^k``.  The paper proves k = 2 for the sparse
triangular solvers on both 2-D and 3-D neighbourhood-graph matrices
(Equations 5 and 9) and k = 1.5 for the corresponding factorization.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.util.validation import require

# runner(size, p) -> (work W, serial seconds, parallel seconds)
Runner = Callable[[int, int], tuple[float, float, float]]


def isoefficiency_curve(
    runner: Runner,
    ps: Sequence[int],
    target_e: float,
    *,
    size_lo: int,
    size_hi: int,
) -> list[tuple[int, float, float]]:
    """For each p, bisect the size parameter until efficiency ~= target_e.

    Returns a list of ``(p, W, achieved_efficiency)``.  Efficiency is
    assumed to increase with problem size at fixed p (true for all the
    scalable systems in the paper).  Sizes are integers (e.g. grid edge
    length); the bisection stops within 0.02 of the target or after 48
    steps and returns the best integer found.
    """
    require(0.0 < target_e < 1.0, "target efficiency must be in (0, 1)")
    out: list[tuple[int, float, float]] = []
    for p in ps:
        lo, hi = size_lo, size_hi
        best: tuple[int, float, float] | None = None
        for _ in range(48):
            mid = (lo + hi) // 2
            if mid == 0 or hi - lo <= 1:
                break
            w, ts, tp = runner(mid, p)
            e = ts / (p * tp)
            if best is None or abs(e - target_e) < abs(best[2] - target_e):
                best = (mid, w, e)
            if abs(e - target_e) <= 0.02:
                break
            if e < target_e:
                lo = mid
            else:
                hi = mid
        if best is None:
            w, ts, tp = runner(size_lo, p)
            best = (size_lo, w, ts / (p * tp))
        out.append((p, best[1], best[2]))
    return out


def fit_growth_exponent(points: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log W against log p.

    ``points`` is ``[(p, W), ...]``; the return value is the empirical
    isoefficiency exponent k in ``W ~ p^k``.
    """
    require(len(points) >= 2, "need at least two points to fit an exponent")
    ps = np.array([float(p) for p, _ in points])
    ws = np.array([float(w) for _, w in points])
    require(bool(np.all(ps > 0) and np.all(ws > 0)), "p and W must be positive")
    slope, _ = np.polyfit(np.log(ps), np.log(ws), 1)
    return float(slope)
