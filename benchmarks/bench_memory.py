"""Introduction claim: parallelism lifts the uniprocessor memory limit.

"Without an overall parallel solver, the size of the sparse systems that
can be solved may be severely restricted by the amount of memory
available on a uniprocessor system."  Measured: the maximum per-processor
share of the factor shrinks ~1/p under subtree-to-subcube + block-cyclic
distribution, and the multifrontal working peak is a small multiple of
the factor size.
"""

from benchmarks.conftest import write_artifact
from repro.analysis.memory import (
    factor_words_per_processor,
    memory_balance,
    multifrontal_peak_words,
)
from repro.experiments.matrices import prepared
from repro.mapping.subtree_subcube import subtree_to_subcube

PS = (1, 4, 16, 64, 256)


def test_factor_memory_scales_down(benchmark, out_dir):
    def run():
        solver = prepared("bcsstk15", 1)
        stree = solver.symbolic.stree
        rows = []
        for p in PS:
            assign = subtree_to_subcube(stree, p)
            words = factor_words_per_processor(stree, assign)
            rows.append((p, float(words.max()), memory_balance(stree, assign)))
        peak = multifrontal_peak_words(stree)
        return rows, peak, stree.factor_nnz()

    rows, peak, fnnz = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"factor nnz = {fnnz} words; multifrontal stack peak = {peak} "
        f"({peak / fnnz:.2f}x the factor)",
        f"{'p':>5} {'max words/proc':>15} {'KB/proc':>9} {'balance':>8}",
    ]
    for p, mx, bal in rows:
        lines.append(f"{p:>5} {mx:>15.0f} {mx * 8 / 1024:>9.1f} {bal:>8.2f}")
    write_artifact(out_dir, "memory_scaling", "\n".join(lines))

    by_p = {r[0]: r for r in rows}
    # per-processor share shrinks, and by a large factor at p=256
    assert by_p[256][1] < by_p[1][1] / 32
    # balance stays bounded
    assert all(bal < 3.0 for _, _, bal in rows)
    # the multifrontal working peak is a small multiple of the factor
    assert peak < 8 * fnnz
