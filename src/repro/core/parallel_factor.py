"""Simulated parallel supernodal Cholesky factorization (paper ref [4]).

The paper's triangular solvers consume the factor produced by the
Gupta-Karypis-Kumar parallel multifrontal Cholesky, which distributes each
shared supernode over a 2-D ``qr x qc`` processor grid and factors its
dense front with blocked right-looking kernels.  This module builds that
algorithm as a task graph for the event simulator:

* sequential subtrees (q = 1): one task per supernode at the serial
  supernodal kernel cost;
* shared supernodes (q > 1): the dense front (n x n, first t columns
  eliminated) is tiled with ``b x b`` blocks mapped 2-D block-cyclically;
  per panel k: POTRF(k,k) -> column broadcast -> TRSM(i,k) -> row/column
  broadcasts -> SYRK/GEMM updates on every trailing block;
* extend-add between supernodes is modelled as a child-grid sync followed
  by scattered messages into the parent's first-panel tasks (the paper's
  analysis also treats this term as lower-order).

The graph is *timing-only* (no numeric thunks — numerics come from the
serial multifrontal code, which is what the solvers consume); its
makespan is the higher-fidelity check on the coarse closed form of
:mod:`repro.core.factor_model` that the solver reports (the calibration
benchmark compares the two).
"""

from __future__ import annotations

from repro.core.blocks import SupernodeBlocks
from repro.machine.events import SimResult, TaskGraph, simulate
from repro.machine.spec import MachineSpec
from repro.mapping.layouts import BlockCyclic2D
from repro.mapping.subtree_subcube import ProcSet
from repro.symbolic.stree import SupernodalTree
from repro.util.flops import cholesky_flops, gemm_flops
from repro.util.validation import require


def _serial_supernode_cost(spec: MachineSpec, n: int, t: int) -> float:
    flops = t**3 / 3.0 + (n - t) * t * t + float(n - t) ** 2 * t
    return spec.compute_time(flops, nrhs=max(t, 1), calls=3)


def build_factor_graph(
    stree: SupernodalTree,
    assign: list[ProcSet],
    spec: MachineSpec,
    *,
    b: int = 8,
    nproc: int | None = None,
) -> TaskGraph:
    """Task graph of the parallel multifrontal factorization."""
    p = nproc or max(ps.stop for ps in assign)
    g = TaskGraph(nproc=p)
    # exit[s] = (sync task id, update words) available to the parent
    exit_task: dict[int, tuple[int, float]] = {}

    for s in stree.topo_order():
        sn = stree.supernodes[s]
        procs = assign[s]
        child_exits = [exit_task.pop(c) for c in stree.children[s] if c in exit_task]

        if procs.size == 1:
            cost = _serial_supernode_cost(spec, sn.n, sn.t)
            tid = g.add_task(procs.start, cost, priority=(s, 0, 0, 0), label=f"f{s}:seq")
            for ctid, words in child_exits:
                g.add_edge(ctid, tid, words=words)
            update_words = float(sn.n - sn.t) ** 2 / 2.0
            if sn.n > sn.t:
                exit_task[s] = (tid, update_words)
            continue

        exit_task[s] = _add_parallel_supernode(
            g, s, sn, procs, spec, b, child_exits
        )
    return g


def _add_parallel_supernode(
    g: TaskGraph,
    s: int,
    sn,
    procs: ProcSet,
    spec: MachineSpec,
    b: int,
    child_exits: list[tuple[int, float]],
) -> tuple[int, float] | None:
    """Blocked right-looking dense partial factorization of one front."""
    n, t = sn.n, sn.t
    rows = SupernodeBlocks(n=n, t=t, b=b, procs=procs)
    layout = BlockCyclic2D(n=n, t=max(t, 1), b=b, procs=procs)
    qr, qc = layout.grid
    nb = rows.nblocks
    ntb = rows.n_tri_blocks

    def owner(i: int, j: int) -> int:
        # 2-D block-cyclic over the front's block grid.
        return procs.start + (i % qr) * qc + (j % qc)

    # Assembly: one task per processor of the grid, receiving its share of
    # each child's update matrix.
    assemble: dict[int, int] = {}
    q = procs.size
    for rank in procs.ranks():
        tid = g.add_task(rank, spec.t_call, priority=(s, 0, rank, 0), label=f"f{s}:A")
        for ctid, words in child_exits:
            g.add_edge(ctid, tid, words=words / q)
        assemble[rank] = tid

    # Block tasks.  last_writer[(i, j)] tracks the newest task touching a
    # block, so panel k+1 consumes panel k's updates.
    last_writer: dict[tuple[int, int], int] = {}

    def block_dep(tid: int, i: int, j: int) -> None:
        prev = last_writer.get((i, j))
        if prev is not None:
            g.add_edge(prev, tid)
        else:
            g.add_edge(assemble[g.tasks[tid].proc], tid)
        last_writer[(i, j)] = tid

    for k in range(ntb):
        bk = rows.size(k)
        # POTRF of the diagonal block
        potrf = g.add_task(
            owner(k, k),
            spec.compute_time(cholesky_flops(bk), nrhs=max(bk, 1), calls=1),
            priority=(s, 1 + k, 0, 0),
            label=f"f{s}:P{k}",
        )
        block_dep(potrf, k, k)

        # TRSMs down the panel
        trsm_ids: dict[int, int] = {}
        for i in range(k + 1, nb):
            bi = rows.size(i)
            tid = g.add_task(
                owner(i, k),
                spec.compute_time(bi * bk * bk, nrhs=max(bk, 1), calls=1),
                priority=(s, 1 + k, 1, i),
                label=f"f{s}:T{i}.{k}",
            )
            g.add_edge(potrf, tid, words=bk * bk / 2.0)
            block_dep(tid, i, k)
            trsm_ids[i] = tid

        # Trailing updates: block (i, j), i >= j > k
        for j in range(k + 1, nb):
            bj = rows.size(j)
            for i in range(j, nb):
                bi = rows.size(i)
                tid = g.add_task(
                    owner(i, j),
                    spec.compute_time(gemm_flops(bi, bk, bj), nrhs=max(bj, 1), calls=1),
                    priority=(s, 1 + k, 2, i * nb + j),
                    label=f"f{s}:U{i}.{j}.{k}",
                )
                g.add_edge(trsm_ids[i], tid, words=bi * bk)
                if j != i:
                    g.add_edge(trsm_ids[j], tid, words=bj * bk)
                block_dep(tid, i, j)

    if n == t:
        # Root supernode: nothing flows upward, but emit a sync so callers
        # can await completion uniformly.
        done = g.add_task(procs.start, 0.0, priority=(s, 1 + ntb, 3, 0), label=f"f{s}:done")
        for (i, j), tid in last_writer.items():
            if i == j:
                g.add_edge(tid, done)
        return done, 0.0

    # Exit sync: the Schur complement is complete once every trailing
    # block received its last panel update.
    done = g.add_task(procs.start, 0.0, priority=(s, 1 + ntb, 3, 0), label=f"f{s}:done")
    for i in range(ntb, nb):
        for j in range(ntb, i + 1):
            tid = last_writer.get((i, j))
            if tid is not None:
                g.add_edge(tid, done)
    update_words = float(n - t) ** 2 / 2.0
    return done, update_words


def simulated_factor_time(
    spec: MachineSpec,
    stree: SupernodalTree,
    assign: list[ProcSet],
    *,
    b: int = 8,
    nproc: int | None = None,
) -> tuple[float, SimResult]:
    """Makespan of the simulated parallel factorization."""
    require(len(assign) == stree.nsuper, "assignment size mismatch")
    g = build_factor_graph(stree, assign, spec, b=b, nproc=nproc)
    sim = simulate(g, spec)
    return sim.makespan, sim
