"""Cross-validation: task-graph vs SPMD implementations of the solvers.

Two independently structured implementations of the paper's algorithms —
the dataflow task graph and the rank-local message-passing programs — are
run on the same factor, machine, and right-hand side.  Their numeric
results must agree to machine precision and their simulated times must
agree on the machine-time scale; systematic divergence would indicate a
modeling bug in one of them.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.core.backward import parallel_backward
from repro.core.forward import parallel_forward
from repro.core.solver import ParallelSparseSolver
from repro.core.spmd_backward import spmd_backward
from repro.core.spmd_forward import spmd_forward
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.sparse.generators import fe_mesh_2d

PS = (1, 4, 16, 64)


def test_spmd_crossvalidation(benchmark, out_dir):
    def run():
        a = fe_mesh_2d(32, seed=77)
        base = ParallelSparseSolver(a, p=1, spec=cray_t3d()).prepare()
        rng = np.random.default_rng(0)
        bp = base.symbolic.perm.apply_to_vector(rng.normal(size=(a.n, 1)))
        rows = []
        for p in PS:
            assign = subtree_to_subcube(base.symbolic.stree, p)
            y_tg, f_tg = parallel_forward(base.factor, assign, cray_t3d(), bp, nproc=p)
            y_sp, f_sp = spmd_forward(base.factor, assign, cray_t3d(), bp, nproc=p)
            x_tg, b_tg = parallel_backward(base.factor, assign, cray_t3d(), y_tg, nproc=p)
            x_sp, b_sp = spmd_backward(base.factor, assign, cray_t3d(), y_sp, nproc=p)
            num_diff = max(
                float(np.abs(y_tg - y_sp).max()), float(np.abs(x_tg - x_sp).max())
            )
            rows.append(
                (p, f_tg.makespan, f_sp.makespan, b_tg.makespan, b_sp.makespan, num_diff)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "task-graph (tg) vs SPMD: forward/backward makespans, N=1024 FE mesh",
        f"{'p':>4} {'fwd tg(ms)':>11} {'fwd spmd':>10} {'bwd tg(ms)':>11} {'bwd spmd':>10} {'max|diff|':>10}",
    ]
    for p, ftg, fsp, btg, bsp, diff in rows:
        lines.append(
            f"{p:>4} {ftg * 1e3:>11.3f} {fsp * 1e3:>10.3f} {btg * 1e3:>11.3f} "
            f"{bsp * 1e3:>10.3f} {diff:>10.2e}"
        )
    write_artifact(out_dir, "spmd_crossvalidation", "\n".join(lines))

    for p, ftg, fsp, btg, bsp, diff in rows:
        assert diff < 1e-11
        assert 0.3 < fsp / ftg < 3.0, f"forward divergence at p={p}"
        assert 0.3 < bsp / btg < 3.0, f"backward divergence at p={p}"
