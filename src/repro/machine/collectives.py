"""Collective-communication cost formulas (hypercube algorithms).

Closed-form times from Kumar, Grama, Gupta & Karypis, *Introduction to
Parallel Computing* (ref [8] of the paper) — the same source the paper's
analysis cites for the all-to-all personalized cost of redistribution
(Section 4).  ``m`` is the per-processor message size in words; ``q`` is
the number of participating processors.

These are used (a) directly for the redistribution/collection phases whose
internal schedule we do not simulate task-by-task, and (b) in the closed-
form scalability models of :mod:`repro.analysis.models`.
"""

from __future__ import annotations

import math

from repro.machine.spec import MachineSpec
from repro.util.validation import check_positive


def _log2(q: int) -> int:
    check_positive(q, "q")
    return max(int(math.ceil(math.log2(q))), 0) if q > 1 else 0


def broadcast_time(spec: MachineSpec, q: int, m: float) -> float:
    """One-to-all broadcast of *m* words among *q* procs: (t_s + t_w m) log q."""
    if q <= 1 or m <= 0:
        return 0.0
    return (spec.t_s + spec.t_w * m) * _log2(q)


def reduce_time(spec: MachineSpec, q: int, m: float) -> float:
    """All-to-one reduction; same cost shape as a broadcast."""
    return broadcast_time(spec, q, m)


def all_to_all_personalized_time(
    spec: MachineSpec, q: int, m: float, *, algorithm: str = "pairwise"
) -> float:
    """All-to-all personalized exchange; *m* words from each proc to each other.

    ``pairwise``  — q-1 exchange steps of m words each (optimal volume on a
    fully-connected / E-cube routed network):
    ``(t_s + t_w m)(q - 1)``.  Total per-proc data m(q-1), i.e. the
    O(n t / q) the paper quotes for supernode redistribution.

    ``hypercube`` — log q store-and-forward steps of m q/2 words:
    ``(t_s + t_w m q / 2) log q``; fewer startups, more volume.
    """
    if q <= 1 or m <= 0:
        return 0.0
    if algorithm == "pairwise":
        return (spec.t_s + spec.t_w * m) * (q - 1)
    if algorithm == "hypercube":
        return (spec.t_s + spec.t_w * m * q / 2.0) * _log2(q)
    raise ValueError(f"unknown all-to-all algorithm {algorithm!r}")
