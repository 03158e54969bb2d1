"""Nested-dissection ordering.

Recursively find a vertex separator, order the two halves first (recursively)
and the separator vertices **last**.  With geometric median-cut separators on
2-D/3-D meshes this yields the classic George ordering: separators become
the dense supernodes at the top of the elimination tree, the tree is almost
balanced, and the subtree-to-subcube mapping of the paper applies directly.

Small subgraphs (``leaf_size`` or fewer vertices) are ordered by minimum
degree, which keeps leaf-level fill low without affecting the asymptotics.
"""

from __future__ import annotations

import numpy as np

from repro.graph.separators import find_separator
from repro.graph.structure import Adjacency
from repro.graph.traversal import connected_components
from repro.ordering.minimum_degree import minimum_degree
from repro.ordering.permutation import Permutation
from repro.util.segments import ptr_from_counts
from repro.util.validation import check_positive


def nested_dissection(g: Adjacency, *, leaf_size: int = 8, max_depth: int | None = None) -> Permutation:
    """Nested-dissection permutation (new <- old).

    Parameters
    ----------
    g:
        The adjacency structure of the (full symmetric) matrix pattern.
    leaf_size:
        Subgraphs at or below this size stop recursing and are ordered with
        minimum degree.
    max_depth:
        Optional recursion cap; ``None`` means recurse until leaf_size.
        Useful in tests and in experiments that want a tree of exactly
        ``log2 p`` parallel levels.
    """
    check_positive(leaf_size, "leaf_size")
    out: list[int] = []
    _dissect(g, np.arange(g.n, dtype=np.int64), out, leaf_size, max_depth, 0)
    if len(out) != g.n:
        raise AssertionError("nested dissection lost vertices")  # pragma: no cover
    return Permutation(np.asarray(out, dtype=np.int64))


def _dissect(
    g: Adjacency,
    to_global: np.ndarray,
    out: list[int],
    leaf_size: int,
    max_depth: int | None,
    depth: int,
) -> None:
    if g.n <= leaf_size or (max_depth is not None and depth >= max_depth):
        _order_leaf(g, to_global, out)
        return
    sep = find_separator(g)
    if sep.left.size == 0 or sep.right.size == 0:
        # Separator failed to split (e.g. a clique): fall back to MD here.
        _order_leaf(g, to_global, out)
        return
    if g.coords is None and sep.separator.size == 0:
        # The level-set separator found g disconnected.
        _dissect_components(g, to_global, out, leaf_size, max_depth, depth)
        return
    for side in (sep.left, sep.right):
        sub, mapping = g.subgraph(side)
        _dissect(sub, to_global[mapping], out, leaf_size, max_depth, depth + 1)
    # Separator vertices are numbered last => they rise to the top of the
    # elimination tree and become the root supernode of this subproblem.
    if sep.separator.size:
        sub, mapping = g.subgraph(sep.separator)
        local = minimum_degree(sub)
        out.extend(int(to_global[sep.separator[v]]) for v in local.perm)


def _dissect_components(
    g: Adjacency,
    to_global: np.ndarray,
    out: list[int],
    leaf_size: int,
    max_depth: int | None,
    depth: int,
) -> None:
    """Order a disconnected *g* one component at a time, in a loop.

    Components go in order of their lowest vertex.  Component ``k`` is
    dissected at ``depth + k + 1``; the rest, components ``k + 1`` on,
    stand at ``depth + k + 1`` too, and once they fit a leaf or reach
    ``max_depth`` minimum degree orders them together.  This is what
    peeling one component and recursing on the rest gives, without a
    frame per component.

    Linear in the graph, not in graph x components: one labelling, one
    stable sort of the vertices by label, and one relabelled copy of the
    adjacency, of which each component's subgraph is a slice.
    """
    labels = connected_components(g)
    order = np.argsort(labels, kind="stable")  # component by component, ascending
    comp_ptr = ptr_from_counts(np.bincount(labels))
    local = np.empty(g.n, dtype=np.int64)  # each vertex's position in its component
    local[order] = np.arange(g.n) - comp_ptr[labels[order]]
    starts = g.indptr[order]
    lengths = g.indptr[order + 1] - starts
    edge_ptr = ptr_from_counts(lengths)
    flat = np.arange(edge_ptr[-1]) + np.repeat(starts - edge_ptr[:-1], lengths)
    neighbours = local[g.indices[flat]]

    def component(k: int) -> tuple[Adjacency, np.ndarray]:
        lo, hi = comp_ptr[k], comp_ptr[k + 1]
        e_lo, e_hi = edge_ptr[lo], edge_ptr[hi]
        coords = g.coords[order[lo:hi]] if g.coords is not None else None
        sub = Adjacency(int(hi - lo), edge_ptr[lo : hi + 1] - e_lo, neighbours[e_lo:e_hi], coords)
        return sub, order[lo:hi]

    last = comp_ptr.size - 2
    for k in range(last):
        sub, mapping = component(k)
        _dissect(sub, to_global[mapping], out, leaf_size, max_depth, depth + k + 1)
        if k + 1 < last and (
            g.n - comp_ptr[k + 1] <= leaf_size
            or (max_depth is not None and depth + k + 1 >= max_depth)
        ):
            sub, mapping = g.subgraph(np.flatnonzero(labels > k))
            _order_leaf(sub, to_global[mapping], out)
            return
    sub, mapping = component(last)
    _dissect(sub, to_global[mapping], out, leaf_size, max_depth, depth + last)


def _order_leaf(g: Adjacency, to_global: np.ndarray, out: list[int]) -> None:
    if g.n == 1:  # what minimum degree gives, without building its state
        out.append(int(to_global[0]))
        return
    out.extend(int(to_global[v]) for v in minimum_degree(g).perm)
