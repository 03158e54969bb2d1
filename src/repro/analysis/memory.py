"""Memory accounting for the distributed factor and the multifrontal stack.

The paper's introduction motivates a fully parallel solver partly by
memory: "without an overall parallel solver, the size of the sparse
systems that can be solved may be severely restricted by the amount of
memory available on a uniprocessor system."  These helpers quantify that:

* :func:`factor_words_per_processor` — 8-byte words of L each processor
  stores under a subtree-to-subcube + block-cyclic distribution (the
  head-line claim is that the maximum per-processor share shrinks ~1/p);
* :func:`multifrontal_peak_words` — high-water mark of the sequential
  multifrontal update stack (frontal matrix + pending updates), the
  quantity that limits what one node can factor at all.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.subtree_subcube import ProcSet
from repro.symbolic.stree import SupernodalTree
from repro.util.validation import require


def supernode_factor_words(n: int, t: int) -> int:
    """Stored words of one dense trapezoid (triangle + rectangle)."""
    return t * (t + 1) // 2 + (n - t) * t


def factor_words_per_processor(
    stree: SupernodalTree, assign: list[ProcSet]
) -> np.ndarray:
    """Words of L held by each processor (supernodes split evenly over
    their processor sets — block-cyclic layouts balance to within a block)."""
    require(len(assign) == stree.nsuper, "assignment size mismatch")
    p = max(ps.stop for ps in assign) if assign else 1
    words = np.zeros(p)
    for s, sn in enumerate(stree.supernodes):
        procs = assign[s]
        words[procs.start : procs.stop] += supernode_factor_words(sn.n, sn.t) / procs.size
    return words


def memory_balance(stree: SupernodalTree, assign: list[ProcSet]) -> float:
    """max/mean per-processor factor storage (1.0 = perfectly balanced)."""
    words = factor_words_per_processor(stree, assign)
    mean = float(words.mean())
    return float(words.max()) / mean if mean > 0 else 1.0


def multifrontal_peak_words(stree: SupernodalTree) -> int:
    """High-water mark of the sequential multifrontal stack, in words.

    Walks the tree in the same (postorder) schedule the numeric
    factorization uses: at each supernode the live set is its full frontal
    matrix plus the update matrices of already-factored siblings awaiting
    extend-add.  Children are visited in index order, matching
    :meth:`SupernodalTree.topo_order`.
    """
    peak = 0
    live = 0
    update_words: dict[int, int] = {}
    for s in stree.topo_order():
        sn = stree.supernodes[s]
        front = sn.n * sn.n
        # frontal matrix allocated while children updates are still live
        live += front
        peak = max(peak, live)
        # children updates are consumed into the front
        for c in stree.children[s]:
            live -= update_words.pop(c)
        # front is compressed: factored columns go to factor storage, the
        # Schur complement remains on the stack for the parent
        upd = (sn.n - sn.t) ** 2
        live += upd - front
        update_words[s] = upd
    return peak
