"""Calibration anchors: single-PE rates against the paper's T3D numbers.

The simulated machine is only as meaningful as its calibration.  This
bench pins the anchors stated in EXPERIMENTS.md:

* FBsolve at NRHS=1 lands in the 5-9 MFLOPS band (paper: 6.6);
* FBsolve at NRHS=30 lands in the 25-50 band (paper: ~30);
* serial factorization lands in the 25-45 band (paper: 34.5);
* the parallel factorization simulation agrees with the closed-form
  model within 3x across p.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.core.factor_model import parallel_factor_time
from repro.core.parallel_factor import simulated_factor_time
from repro.experiments.matrices import prepared
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import subtree_to_subcube


def test_single_pe_anchors(benchmark, out_dir):
    def run():
        rows = []
        for name in ("bcsstk15", "cube35"):
            solver = prepared(name, 1)
            rng = np.random.default_rng(0)
            b = rng.normal(size=(solver.a.n, 30))
            _, r1 = solver.solve(b[:, :1], check=False)
            _, r30 = solver.solve(b, check=False)
            rows.append((name, r1.fbsolve_mflops, r30.fbsolve_mflops, r1.factor_mflops))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["matrix      solve MF(1)  solve MF(30)  factor MF   [paper: 6.6 / ~30 / 34.5]"]
    for name, m1, m30, mf in rows:
        lines.append(f"{name:<12} {m1:10.1f} {m30:12.1f} {mf:10.1f}")
    write_artifact(out_dir, "calibration_anchors", "\n".join(lines))
    for name, m1, m30, mf in rows:
        assert 4.0 < m1 < 10.0, f"{name} NRHS=1 anchor drifted: {m1}"
        assert 25.0 < m30 < 55.0, f"{name} NRHS=30 anchor drifted: {m30}"
        assert 20.0 < mf < 45.0, f"{name} factorization anchor drifted: {mf}"


def test_factor_simulation_vs_model(benchmark, out_dir):
    def run():
        solver = prepared("bcsstk15", 1)
        stree = solver.symbolic.stree
        spec = cray_t3d()
        rows = []
        for p in (4, 16, 64):
            assign = subtree_to_subcube(stree, p)
            tsim, _ = simulated_factor_time(spec, stree, assign, nproc=p)
            tmod = parallel_factor_time(spec, stree, assign)
            rows.append((p, tsim, tmod))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["p     simulated(ms)  model(ms)   ratio"]
    for p, tsim, tmod in rows:
        lines.append(f"{p:<5d} {tsim * 1e3:12.2f} {tmod * 1e3:10.2f} {tsim / tmod:7.2f}")
    write_artifact(out_dir, "calibration_factor_model", "\n".join(lines))
    for p, tsim, tmod in rows:
        assert 1 / 3 < tsim / tmod < 3.0
