"""Section 3.3: sparse triangular solvers are as scalable as dense ones.

The paper's optimality argument: the top supernode of a 3-D problem is an
N^{2/3} x N^{2/3} dense triangle, so no sparse triangular solver can be
more scalable than the 1-D pipelined *dense* solver, whose isoefficiency
is O(p^2) — the same as the sparse solvers'.  Here both are run through
the event simulator and their efficiency decay with p is compared at
matched work.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.core.dense import dense_trisolve_time
from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.sparse.generators import grid3d_laplacian

PS = (1, 2, 4, 8, 16, 32)


def _sparse_times(ps):
    a = grid3d_laplacian(10)  # N = 1000
    base = ParallelSparseSolver(a, p=1, spec=cray_t3d(), relax=0).prepare()
    rng = np.random.default_rng(33)
    b = rng.normal(size=(a.n, 1))
    times = {}
    for p in ps:
        solver = ParallelSparseSolver(a, p=p, spec=cray_t3d(), relax=0)
        solver.symbolic, solver.factor = base.symbolic, base.factor
        solver.assign = subtree_to_subcube(base.symbolic.stree, p)
        _, rep = solver.solve(b, check=False)
        times[p] = rep.forward.seconds
    return times, base.symbolic.stree.solve_flops()


def _dense_times(n, ps):
    spec = cray_t3d()
    return {p: dense_trisolve_time(n, spec, p, b=8) for p in ps}


def test_dense_vs_sparse_scalability(benchmark, out_dir):
    def run():
        sparse_t, sparse_flops = _sparse_times(PS)
        # dense triangle with comparable work: flops_dense = n^2
        n_dense = int(np.sqrt(sparse_flops))
        dense_t = _dense_times(n_dense, PS)
        return sparse_t, dense_t, n_dense

    sparse_t, dense_t, n_dense = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"sparse: 10^3 grid forward solve; dense: {n_dense}x{n_dense} triangle "
        f"(matched flops)",
        f"{'p':>4} {'sparse E':>9} {'dense E':>9}",
    ]
    rows = []
    for p in PS:
        es = sparse_t[1] / (p * sparse_t[p])
        ed = dense_t[1] / (p * dense_t[p])
        rows.append((p, es, ed))
        lines.append(f"{p:>4} {es:>9.3f} {ed:>9.3f}")
    write_artifact(out_dir, "dense_vs_sparse", "\n".join(lines))

    # Both decay with p (the shared O(p^2) isoefficiency class): at the
    # largest p both are below 0.9 efficiency, and the sparse solver's
    # efficiency is within a modest factor of the dense one's.
    _, es_last, ed_last = rows[-1]
    assert es_last < 0.9 and ed_last < 0.9
    assert es_last > ed_last / 6.0
    # Efficiency decreases monotonically (up to small scheduling noise).
    sparse_es = [r[1] for r in rows]
    assert all(b <= a * 1.1 for a, b in zip(sparse_es, sparse_es[1:]))


def test_top_supernode_dominates_3d(benchmark, out_dir):
    """The other half of the optimality argument: the root separator's
    dense solve is a constant fraction of the whole sparse solve."""

    def run():
        a = grid3d_laplacian(10)
        sym = ParallelSparseSolver(a, p=1, relax=0).prepare().symbolic
        stree = sym.stree
        root = max(stree.roots(), key=lambda s: stree.supernodes[s].t)
        sn = stree.supernodes[root]
        from repro.util.flops import supernode_solve_flops

        top = supernode_solve_flops(sn.n, sn.t)
        total = stree.solve_flops()
        return sn.t, top, total

    t, top, total = benchmark.pedantic(run, rounds=1, iterations=1)
    frac = top / total
    write_artifact(
        out_dir,
        "top_supernode_share",
        f"3-D 10^3 grid: root separator width {t} "
        f"(~N^(2/3) = {round(1000 ** (2 / 3))}), "
        f"top-supernode solve flops = {frac:.1%} of the total",
    )
    assert frac > 0.10  # asymptotically a constant fraction
