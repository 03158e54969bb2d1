"""2-D -> 1-D redistribution of supernodes (paper Section 4, Figure 6).

Factorization wants each supernode 2-D block-cyclic over a ``qr x qc``
grid; the triangular solvers want it 1-D row block-cyclic over the same
``q`` processors.  The conversion is, per horizontal strip of the
supernode, an all-to-all personalized exchange among the processors of one
grid row, each holding ``n*t/q`` words — total time ``O(n t / q)``, the
same order as the solve work per processor, which is the paper's claim
(measured on the T3D at <= 0.9x, average ~0.5x of the solve time).

Two views are provided: :func:`redistribute_supernode` actually moves data
(for correctness tests), and :func:`redistribution_time` /
:func:`total_redistribution_time` give the simulated cost.
"""

from __future__ import annotations

import numpy as np

from repro.machine.collectives import all_to_all_personalized_time
from repro.machine.spec import MachineSpec
from repro.mapping.layouts import BlockCyclic1D, BlockCyclic2D
from repro.mapping.subtree_subcube import ProcSet
from repro.symbolic.stree import SupernodalTree


def redistribute_supernode(
    block: np.ndarray,
    layout2d: BlockCyclic2D,
    layout1d: BlockCyclic1D,
) -> tuple[dict[int, np.ndarray], dict[tuple[int, int], int]]:
    """Move a dense ``n x t`` trapezoid from a 2-D to a 1-D distribution.

    Returns ``(pieces, traffic)`` where ``pieces[rank]`` is the dense
    row-slab each rank owns afterwards (rows in 1-D layout order,
    concatenated block by block) and ``traffic[(src, dst)]`` counts the
    words moved between each processor pair (diagonal = data already in
    place).  The function emulates the exchange element-wise, which is what
    the correctness tests compare against direct slicing.
    """
    n, t = block.shape
    if (layout2d.n, layout2d.t) != (n, t):
        raise ValueError("2-D layout shape mismatch")
    if layout1d.n != n:
        raise ValueError("1-D layout must partition the n rows")
    pieces: dict[int, np.ndarray] = {}
    traffic: dict[tuple[int, int], int] = {}
    for rank in layout1d.procs.ranks():
        rows = layout1d.items_of(rank)
        pieces[rank] = block[rows, :].copy()
        for i in rows:
            for j in range(t):
                src = layout2d.owner_of_item(i, j)
                key = (src, rank)
                traffic[key] = traffic.get(key, 0) + 1
    return pieces, traffic


def redistribution_time(spec: MachineSpec, n: int, t: int, procs: ProcSet) -> float:
    """Simulated time to convert one supernode from 2-D to 1-D layout.

    Each grid row of ``qc`` processors transposes its ``(n/qr) x t`` strip:
    an all-to-all personalized exchange with ``n*t/q`` words per processor.
    Grid rows proceed concurrently, so the supernode cost is one exchange.
    """
    q = procs.size
    if q == 1 or n == 0 or t == 0:
        return 0.0
    layout = BlockCyclic2D(n=n, t=t, b=1, procs=procs)
    qr, qc = layout.grid
    if qc == 1:
        return 0.0  # already row-partitioned
    words_per_proc = n * t / q
    return all_to_all_personalized_time(spec, qc, words_per_proc)


def total_redistribution_time(
    spec: MachineSpec,
    stree: SupernodalTree,
    assign: list[ProcSet],
) -> float:
    """Simulated time to redistribute every shared supernode.

    Supernodes at the same tree level live on disjoint subcubes and convert
    concurrently, so the total is the sum over levels of the level maximum.
    Single-processor supernodes need no conversion.
    """
    per_level: dict[int, float] = {}
    for s, sn in enumerate(stree.supernodes):
        procs = assign[s]
        if procs.size == 1:
            continue
        cost = redistribution_time(spec, sn.n, sn.t, procs)
        lvl = int(stree.level[s])
        per_level[lvl] = max(per_level.get(lvl, 0.0), cost)
    return sum(per_level.values())
