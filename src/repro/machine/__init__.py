"""Simulated distributed-memory message-passing machine.

This package is the substitution for the paper's Cray T3D (see DESIGN.md):
a deterministic discrete-event simulator with per-processor clocks and the
linear message-cost model ``t_s + t_w * words (+ t_h * hops)`` that the
paper's own analysis (and Kumar et al.'s *Introduction to Parallel
Computing*) uses.  Algorithms are expressed as task graphs
(:class:`TaskGraph`): tasks are bound to processors, carry compute costs
and optional real numeric work, and edges crossing processors become
messages.  The simulator yields makespans, per-processor busy/idle traces,
and message statistics.
"""

from repro.machine.spec import MachineSpec
from repro.machine.topology import Hypercube, Mesh2D, Mesh3D, FullyConnected, make_topology
from repro.machine.events import Task, TaskGraph, SimResult, simulate
from repro.machine.collectives import (
    broadcast_time,
    all_to_all_personalized_time,
    reduce_time,
)
from repro.machine.presets import cray_t3d
from repro.machine.trace import gantt, processor_stats, utilisation_summary
from repro.machine.spmd import Env, DeadlockError, SpmdResult, run_spmd

__all__ = [
    "MachineSpec",
    "Hypercube",
    "Mesh2D",
    "Mesh3D",
    "FullyConnected",
    "make_topology",
    "Task",
    "TaskGraph",
    "SimResult",
    "simulate",
    "broadcast_time",
    "all_to_all_personalized_time",
    "reduce_time",
    "cray_t3d",
    "gantt",
    "processor_stats",
    "utilisation_summary",
    "Env",
    "DeadlockError",
    "SpmdResult",
    "run_spmd",
]
