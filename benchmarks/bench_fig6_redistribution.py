"""Figure 6 + Section 4: 2-D -> 1-D supernode redistribution.

Regenerates (a) the Figure 6 ownership diagram for a supernode on 16
processors, and (b) the paper's quantitative claim: redistribution costs
at most ~0.9x (average ~0.5x) of the FBsolve time with one right-hand
side, and is amortised with more right-hand sides.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.experiments.fig7 import fig7_rows
from repro.mapping.layouts import BlockCyclic1D, BlockCyclic2D
from repro.mapping.redistribution import redistribute_supernode
from repro.mapping.subtree_subcube import ProcSet

MATRICES = ["bcsstk15", "bcsstk31", "hsct21954", "cube35", "copter2"]


def _ownership_diagram(n: int, t: int, q: int) -> str:
    """Render before/after owner grids like the paper's Figure 6."""
    l2 = BlockCyclic2D(n=n, t=t, b=1, procs=ProcSet(0, q))
    l1 = BlockCyclic1D(n=n, b=1, procs=ProcSet(0, q))
    lines = [f"2-D block layout on a {l2.grid[0]}x{l2.grid[1]} grid (left) -> 1-D rows (right)"]
    for i in range(n):
        left = " ".join(f"P{l2.owner_of_item(i, j):<2d}" for j in range(t))
        right = f"P{l1.owner_of_item(i):<2d} owns row {i}"
        lines.append(f"{left}    | {right}")
    return "\n".join(lines)


def test_fig6_diagram(benchmark, out_dir):
    text = benchmark(_ownership_diagram, 16, 4, 16)
    write_artifact(out_dir, "fig6_diagram", text)
    assert "P15" in text


def test_fig6_data_movement_exactness(benchmark, out_dir):
    """The emulated exchange moves every element to its 1-D owner."""
    rng = np.random.default_rng(6)
    n, t, q = 64, 16, 16
    block = rng.normal(size=(n, t))
    l2 = BlockCyclic2D(n=n, t=t, b=4, procs=ProcSet(0, q))
    l1 = BlockCyclic1D(n=n, b=4, procs=ProcSet(0, q))
    pieces, traffic = benchmark(redistribute_supernode, block, l2, l1)
    for rank in range(q):
        np.testing.assert_allclose(pieces[rank], block[l1.items_of(rank), :])
    moved = sum(v for (s, d), v in traffic.items() if s != d)
    stayed = sum(v for (s, d), v in traffic.items() if s == d)
    write_artifact(
        out_dir,
        "fig6_traffic",
        f"supernode {n}x{t} on {q} procs: {moved} words moved, {stayed} in place "
        f"({moved / (moved + stayed):.0%} of the factor crosses the network)",
    )
    assert moved + stayed == n * t


def test_redistribution_below_solve_time(benchmark, out_dir):
    """Section 4 claim across all five matrices at p in {16, 64}."""

    def run():
        out = []
        for m in MATRICES:
            for row in fig7_rows(m, ps=(16, 64), nrhs_list=(1,), check=False):
                out.append((m, row.p, row.redistribution_ratio))
        return out

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["matrix       p    redistribute/FBsolve (paper: <= 0.9, avg ~0.5)"]
    for m, p, r in ratios:
        lines.append(f"{m:<12} {p:<4d} {r:.3f}")
    avg = sum(r for _, _, r in ratios) / len(ratios)
    lines.append(f"average: {avg:.3f}")
    write_artifact(out_dir, "fig6_redistribution_ratio", "\n".join(lines))
    assert all(r <= 0.9 for _, _, r in ratios)
    assert avg <= 0.6


def test_redistribution_amortised_over_nrhs(benchmark, out_dir):
    """With 30 right-hand sides the one-time redistribution is negligible."""
    rows = benchmark.pedantic(
        fig7_rows,
        args=("bcsstk15",),
        kwargs=dict(ps=(64,), nrhs_list=(1, 30), check=False),
        rounds=1,
        iterations=1,
    )
    r1 = next(r for r in rows if r.nrhs == 1)
    r30 = next(r for r in rows if r.nrhs == 30)
    text = (
        f"redistribute = {r1.redistribute_seconds:.4f}s; "
        f"FBsolve(1 rhs) = {r1.fbsolve_seconds:.4f}s (ratio {r1.redistribution_ratio:.2f}); "
        f"FBsolve(30 rhs) = {r30.fbsolve_seconds:.4f}s (ratio {r30.redistribution_ratio:.2f})"
    )
    write_artifact(out_dir, "fig6_amortisation", text)
    assert r30.redistribution_ratio < r1.redistribution_ratio
