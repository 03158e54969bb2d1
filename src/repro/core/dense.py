"""Dense pipelined triangular solver (Heath & Romine, paper ref [6]).

Section 3.3 compares the sparse solvers' scalability against the dense
1-D block-cyclic pipelined triangular solve: communication ``b(p-1) + N``,
overhead ``O(p^2) + O(N p)``, isoefficiency ``O(p^2)`` — the same as the
sparse solvers, which is the paper's optimality argument (the root
separator of a 3-D problem *is* an N^{2/3} dense triangle, so no sparse
method can scale better than the dense solve of its top supernode).

This module implements that comparator for real: a dense lower-triangular
system distributed row-block-cyclically over p simulated processors,
executed through the same event simulator and verified against
scipy.  It is literally the sparse machinery applied to a single
supernode with n = t.
"""

from __future__ import annotations

import numpy as np

from repro.core.forward import build_forward_graph
from repro.machine.events import SimResult, simulate
from repro.machine.spec import MachineSpec
from repro.mapping.subtree_subcube import ProcSet
from repro.symbolic.stree import Supernode, SupernodalTree
from repro.numeric.supernodal import SupernodalFactor
from repro.symbolic.etree import NO_PARENT
from repro.util.validation import check_power_of_two, require


def _as_single_supernode_factor(l: np.ndarray) -> SupernodalFactor:
    """Wrap a dense lower-triangular matrix as a one-supernode factor."""
    require(l.ndim == 2 and l.shape[0] == l.shape[1], "L must be square")
    n = l.shape[0]
    sn = Supernode(index=0, col_lo=0, col_hi=n, rows=np.arange(n, dtype=np.int64))
    stree = SupernodalTree(
        supernodes=[sn], parent=np.array([NO_PARENT], dtype=np.int64)
    )
    return SupernodalFactor(stree=stree, blocks=[np.tril(l)])


def dense_forward(
    l: np.ndarray,
    rhs: np.ndarray,
    spec: MachineSpec,
    p: int,
    *,
    b: int = 8,
    variant: str = "column",
) -> tuple[np.ndarray, SimResult]:
    """Solve dense ``L y = rhs`` with the pipelined 1-D algorithm on p PEs."""
    check_power_of_two(p, "p")
    factor = _as_single_supernode_factor(l)
    assign = [ProcSet(0, p)] if p > 1 else [ProcSet(0, 1)]
    graph, out = build_forward_graph(
        factor, assign, spec, rhs, b=b, variant=variant, nproc=p
    )
    sim = simulate(graph, spec)
    squeeze = np.asarray(rhs).ndim == 1
    return (out[:, 0] if squeeze else out), sim


def dense_trisolve_time(
    n: int, spec: MachineSpec, p: int, *, b: int = 8, nrhs: int = 1, seed: int = 0
) -> float:
    """Simulated forward-solve makespan for a random dense n x n system."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    l = np.tril(m) + n * np.eye(n)
    rhs = rng.normal(size=(n, nrhs))
    _, sim = dense_forward(l, rhs, spec, p, b=b)
    return sim.makespan
