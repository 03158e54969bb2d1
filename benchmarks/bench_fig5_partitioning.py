"""Figure 5, measured: 1-D vs 2-D partitioning for the triangular solve.

The table marks the 2-D-partitioned solve "Unscalable" and is the reason
Section 4 redistributes the factor.  Both variants run here on the same
factor, same machine, same right-hand side; only the layout (and hence
the communication pattern) differs.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_artifact
from repro.core.forward import parallel_forward
from repro.core.forward_2d import parallel_forward_2d
from repro.core.solver import ParallelSparseSolver
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.sparse.generators import fe_mesh_2d

PS = (1, 4, 16, 64, 256)


def test_one_d_vs_two_d_solve(benchmark, out_dir):
    def run():
        a = fe_mesh_2d(40, seed=55)
        base = ParallelSparseSolver(a, p=1, spec=cray_t3d(), relax=0).prepare()
        rng = np.random.default_rng(0)
        bp = base.symbolic.perm.apply_to_vector(rng.normal(size=(a.n, 1)))
        rows = []
        for p in PS:
            assign = subtree_to_subcube(base.symbolic.stree, p)
            _, s1 = parallel_forward(base.factor, assign, cray_t3d(), bp, nproc=p)
            _, s2 = parallel_forward_2d(base.factor, assign, cray_t3d(), bp, nproc=p)
            rows.append((p, s1.makespan, s2.makespan, s1.comm_volume_words, s2.comm_volume_words))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "forward solve, N=1600 2-D FE mesh  [paper Fig.5: 1-D scalable, 2-D unscalable]",
        f"{'p':>5} {'1-D (ms)':>10} {'2-D (ms)':>10} {'2-D/1-D':>8} {'words 1-D':>10} {'words 2-D':>10}",
    ]
    for p, t1, t2, w1, w2 in rows:
        lines.append(
            f"{p:>5} {t1 * 1e3:>10.3f} {t2 * 1e3:>10.3f} {t2 / t1:>8.2f} {w1:>10.0f} {w2:>10.0f}"
        )
    write_artifact(out_dir, "fig5_partitioning", "\n".join(lines))

    by_p = {r[0]: r for r in rows}
    # identical work at p=1
    assert by_p[1][1] == pytest.approx(by_p[1][2], rel=0.05)
    # at scale, 1-D wins and the gap widens with p.  Note: under this
    # asynchronous dataflow simulator the 2-D penalty is percent-scale,
    # far milder than on 1995 lockstep-collective implementations; the
    # paper's qualitative ordering still holds (see EXPERIMENTS.md).
    assert by_p[64][1] < by_p[64][2]
    assert by_p[256][2] / by_p[256][1] > by_p[4][2] / by_p[4][1]
    # the 2-D variant moves more data at scale
    assert by_p[64][4] > by_p[64][3]
