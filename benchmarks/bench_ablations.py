"""Ablations over the design choices DESIGN.md calls out.

* block size b of the block-cyclic mapping (the paper assumes a small
  constant b; too small inflates startups, too large kills the pipeline);
* row- vs column-priority pipelining (Figures 3(b)/(c));
* interconnect topology (hypercube vs 3-D torus vs ideal crossbar);
* fill-reducing ordering (nested dissection vs minimum degree vs RCM) —
  the subtree-to-subcube analysis assumes nested dissection's balanced
  trees; RCM's path-shaped trees should parallelise far worse.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.core.solver import ParallelSparseSolver
from repro.experiments.matrices import prepared
from repro.machine.presets import cray_t3d
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.sparse.generators import fe_mesh_2d

P = 64


def _solve_time(solver, nrhs=1, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(solver.a.n, nrhs))
    _, rep = solver.solve(b, check=False)
    return rep


def test_block_size_sweep(benchmark, out_dir):
    def run():
        rows = []
        for b in (1, 2, 4, 8, 16, 32, 64):
            solver = prepared("bcsstk15", P, b=b)
            solver.b = b
            rep = _solve_time(solver)
            rows.append((b, rep.fbsolve_seconds))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["b      FBsolve (ms)   (p=64, NRHS=1, bcsstk15 analogue)"]
    for b, t in rows:
        lines.append(f"{b:<6d} {t * 1e3:10.3f}")
    write_artifact(out_dir, "ablation_block_size", "\n".join(lines))
    times = dict(rows)
    # a moderate block size beats both extremes
    best = min(times.values())
    assert best <= times[1] and best <= times[64]


def test_priority_variants(benchmark, out_dir):
    def run():
        out = {}
        for variant in ("column", "row"):
            solver = prepared("bcsstk15", P, variant=variant)
            out[variant] = _solve_time(solver).forward.seconds
        return out

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(f"{k}-priority forward: {v * 1e3:.3f} ms" for k, v in res.items())
    write_artifact(out_dir, "ablation_priority", text)
    # both work; neither is catastrophically worse (paper uses both)
    hi, lo = max(res.values()), min(res.values())
    assert hi < 3 * lo


def test_topology_sweep(benchmark, out_dir):
    def run():
        rows = []
        for topo in ("hypercube", "mesh3d", "full"):
            spec = cray_t3d().with_(topology=topo, t_h=2.0e-7)
            solver = prepared("bcsstk15", P, spec=spec)
            rep = _solve_time(solver)
            rows.append((topo, rep.fbsolve_seconds))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{t:<10} {s * 1e3:10.3f} ms" for t, s in rows]
    write_artifact(out_dir, "ablation_topology", "\n".join(lines))
    times = dict(rows)
    # an ideal crossbar is never slower than a real topology
    assert times["full"] <= min(times["hypercube"], times["mesh3d"]) * 1.05


def test_ordering_ablation(benchmark, out_dir):
    """Nested dissection's balanced trees are what make the subtree-to-
    subcube mapping work; RCM's chain trees should parallelise worse."""

    def run():
        a = fe_mesh_2d(32, seed=12)
        out = {}
        for method in ("nested_dissection", "rcm"):
            base = ParallelSparseSolver(a, p=1, spec=cray_t3d(), ordering=method).prepare()
            rep1 = _solve_time(base)
            par = ParallelSparseSolver(a, p=16, spec=cray_t3d(), ordering=method)
            par.symbolic, par.factor = base.symbolic, base.factor
            par.assign = subtree_to_subcube(base.symbolic.stree, 16)
            rep16 = _solve_time(par)
            out[method] = rep1.fbsolve_seconds / rep16.fbsolve_seconds
        return out

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(f"{k}: speedup(p=16) = {v:.2f}" for k, v in speedups.items())
    write_artifact(out_dir, "ablation_ordering", text)
    assert speedups["nested_dissection"] > speedups["rcm"]


def test_nrhs_amortisation(benchmark, out_dir):
    """Per-RHS solve cost drops steeply with NRHS (BLAS-3 + index reuse)."""

    def run():
        rows = []
        for nrhs in (1, 2, 5, 10, 20, 30):
            rep = _solve_time(prepared("bcsstk15", P), nrhs=nrhs)
            rows.append((nrhs, rep.fbsolve_seconds / nrhs))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["NRHS   per-RHS FBsolve (ms)"]
    for nrhs, t in rows:
        lines.append(f"{nrhs:<6d} {t * 1e3:10.4f}")
    write_artifact(out_dir, "ablation_nrhs", "\n".join(lines))
    per = dict(rows)
    assert per[30] < per[1] / 2
