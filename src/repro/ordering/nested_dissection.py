"""Nested-dissection ordering.

Find a vertex separator, order the two halves first (dissecting each the
same way) and the separator vertices **last**.  With geometric median-cut
separators on 2-D/3-D meshes this yields the classic George ordering:
separators become the dense supernodes at the top of the elimination tree,
the tree is almost balanced, and the subtree-to-subcube mapping of the
paper applies directly.

The dissection runs in rounds, not recursion.  A round takes every live
part at once — a part label per vertex, each part's vertices in ascending
order — and splits each into a left half, a right half and a separator.
On meshes that is one array pass: each part's coordinate spread from
``reduceat``, every part's median cut from one ``lexsort``, every
boundary separator from one mask over the edges inside a part.  Output
ranges go top-down (left half, then right half, then the separator last),
so the order is the recursive one's postorder without a frame per
subgraph.  Graphs without coordinates split each part with the level-set
separator, one BFS per part, in the same rounds.

Parts of ``leaf_size`` or fewer vertices, and the separators, are ordered
by minimum degree at the end: their induced subgraphs come out of one
pass over the edges, and each goes to the minimum-degree kernel.
"""

from __future__ import annotations

import numpy as np

from repro.graph.separators import levelset_separator
from repro.graph.structure import Adjacency
from repro.graph.traversal import connected_components
from repro.ordering.minimum_degree import _eliminate
from repro.ordering.permutation import Permutation
from repro.util.segments import ptr_from_counts, segment_ids
from repro.util.validation import check_positive

_LEFT, _RIGHT, _SEPARATOR = 0, 1, 2


def nested_dissection(g: Adjacency, *, leaf_size: int = 8, max_depth: int | None = None) -> Permutation:
    """Nested-dissection permutation (new <- old).

    Parameters
    ----------
    g:
        The adjacency structure of the (full symmetric) matrix pattern.
    leaf_size:
        Subgraphs at or below this size are not split further and are
        ordered with minimum degree.
    max_depth:
        Optional cap on the dissection depth; ``None`` means split until
        leaf_size.  Useful in tests and in experiments that want a tree
        of exactly ``log2 p`` parallel levels.
    """
    check_positive(leaf_size, "leaf_size")
    rounds = _Rounds(g.n)
    src, dst = segment_ids(g.indptr), g.indices  # the edges inside live parts
    while rounds.lo.size:
        members, ptr = _members(rounds.label, rounds.lo.size)
        size = np.diff(ptr)
        leaf = size <= leaf_size
        if max_depth is not None:
            leaf |= rounds.depth >= max_depth
        rounds.start()
        if g.coords is not None:
            _median_cuts(rounds, g.coords, members, ptr, leaf, src, dst)
        else:
            _level_cuts(rounds, members, ptr, leaf, src, dst, leaf_size, max_depth)
        part = np.repeat(np.arange(size.shape[0]), size)
        whole = leaf[part]
        rounds.groups(members[whole], (np.cumsum(leaf) - 1)[part[whole]], rounds.lo[leaf])
        rounds.finish()
        src, dst = _inside(rounds.label, src, dst)
    return Permutation(_order_groups(g, rounds))


class _Rounds:
    """The dissection's state between rounds.

    ``label[v]`` is vertex *v*'s live part (``-1`` once it is in a
    group), and part *p* owns the output range starting at ``lo[p]`` and
    stands at dissection depth ``depth[p]``.  ``in_group[v]`` is the
    minimum-degree group *v* ends in and ``group_lo`` each group's first
    output position.  A round files each live part's children with
    :meth:`parts` and :meth:`groups` between :meth:`start` and
    :meth:`finish`.
    """

    def __init__(self, n: int) -> None:
        self.label = np.zeros(n, dtype=np.int64)
        self.lo = np.zeros(1, dtype=np.int64)
        self.depth = np.zeros(1, dtype=np.int64)
        self.in_group = np.full(n, -1, dtype=np.int64)
        self.group_lo: list[np.ndarray] = []
        self.ngroups = 0

    def start(self) -> None:
        self._label = np.full(self.label.shape[0], -1, dtype=np.int64)
        self._lo: list[np.ndarray] = []
        self._depth: list[np.ndarray] = []
        self._nparts = 0

    def parts(self, vertices: np.ndarray, which: np.ndarray, lo: np.ndarray,
              depth: np.ndarray) -> None:
        """New parts ``k`` at ``lo[k]`` and ``depth[k]``; ``vertices[i]`` joins ``which[i]``."""
        self._label[vertices] = self._nparts + which
        self._nparts += lo.shape[0]
        self._lo.append(lo)
        self._depth.append(depth)

    def part(self, vertices: np.ndarray, lo: int, depth: int) -> None:
        """One new part of *vertices* at *lo* and *depth*."""
        self.parts(vertices, np.zeros(vertices.shape[0], dtype=np.int64),
                   np.array([lo], dtype=np.int64), np.array([depth], dtype=np.int64))

    def group(self, vertices: np.ndarray, lo: int) -> None:
        """One new group of *vertices* at *lo*."""
        self.groups(vertices, np.zeros(vertices.shape[0], dtype=np.int64),
                    np.array([lo], dtype=np.int64))

    def groups(self, vertices: np.ndarray, which: np.ndarray, lo: np.ndarray) -> None:
        """New groups ``k`` at ``lo[k]``; ``vertices[i]`` joins ``which[i]``."""
        self.in_group[vertices] = self.ngroups + which
        self.ngroups += lo.shape[0]
        self.group_lo.append(lo)

    def finish(self) -> None:
        self.label = self._label
        self.lo = np.concatenate(self._lo) if self._lo else np.empty(0, dtype=np.int64)
        self.depth = np.concatenate(self._depth) if self._depth else np.empty(0, dtype=np.int64)


def _members(label: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The labelled vertices by (label, vertex), and each label's pointer into them."""
    live = np.flatnonzero(label >= 0)
    members = live[np.argsort(label[live], kind="stable")]
    return members, ptr_from_counts(np.bincount(label[live], minlength=count))


def _inside(label: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges ``src -> dst`` whose two ends carry one label (not ``-1``)."""
    keep = label[src] == label[dst]
    keep &= label[src] >= 0
    return src[keep], dst[keep]


def _induced(
    label: np.ndarray, members: np.ndarray, ptr: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every label's induced subgraph, as one CSR over *members*.

    Neighbours are numbered within their own label's run, so the rows of
    ``members[ptr[k]:ptr[k + 1]]`` are label ``k``'s subgraph as it
    stands.  *src* must be ascending (a CSR's sources, or a subset).
    """
    local = np.empty(label.shape[0], dtype=np.int64)
    local[members] = np.arange(members.shape[0]) - np.repeat(ptr[:-1], np.diff(ptr))
    src, dst = _inside(label, src, dst)
    by_label = np.argsort(label[src], kind="stable")  # sources stay ascending per label
    degree = np.bincount(src, minlength=label.shape[0])[members]
    return ptr_from_counts(degree), local[dst[by_label]]


def _median_cuts(
    rounds: _Rounds, coords: np.ndarray, members: np.ndarray, ptr: np.ndarray,
    leaf: np.ndarray, src: np.ndarray, dst: np.ndarray,
) -> None:
    """Cut every part that is no leaf at its median along its widest axis.

    The first half by (coordinate, vertex) is the side; its vertices with
    an edge to the other side are the separator.  A part whose left half
    comes out empty is ordered whole by minimum degree.
    """
    cut = ~leaf
    if not cut.any():
        return
    size = np.diff(ptr)[cut]
    v = members[np.repeat(cut, np.diff(ptr))]
    part = np.repeat(np.arange(size.shape[0]), size)
    starts = ptr_from_counts(size)[:-1]
    xyz = coords[v]
    spread = np.maximum.reduceat(xyz, starts, axis=0) - np.minimum.reduceat(xyz, starts, axis=0)
    key = xyz[np.arange(v.shape[0]), np.argmax(spread, axis=1)[part]]
    by_key = np.lexsort((v, key, part))  # ties by vertex, as in each part's own numbering
    side = np.zeros(rounds.label.shape[0], dtype=bool)
    side[v[by_key[np.arange(v.shape[0]) - starts[part] < (size // 2)[part]]]] = True
    separator = np.zeros_like(side)
    separator[src[side[src] & ~side[dst]]] = True
    code = np.where(separator[v], _SEPARATOR, np.where(side[v], _LEFT, _RIGHT))
    counts = np.bincount(3 * part + code, minlength=3 * size.shape[0]).reshape(-1, 3)
    split = (counts[:, _LEFT] > 0) & (counts[:, _RIGHT] > 0)
    lo, depth = rounds.lo[cut], rounds.depth[cut]
    whole = ~split[part]
    rounds.groups(v[whole], (np.cumsum(~split) - 1)[part[whole]], lo[~split])
    rank = np.cumsum(split) - 1
    lo, depth, counts = lo[split], depth[split] + 1, counts[split]
    for which, start in ((_LEFT, lo), (_RIGHT, lo + counts[:, _LEFT])):
        mine = split[part] & (code == which)
        rounds.parts(v[mine], rank[part[mine]], start, depth)
    mine = split[part] & (code == _SEPARATOR)
    rounds.groups(v[mine], rank[part[mine]], lo + counts[:, _LEFT] + counts[:, _RIGHT])


def _level_cuts(
    rounds: _Rounds, members: np.ndarray, ptr: np.ndarray, leaf: np.ndarray,
    src: np.ndarray, dst: np.ndarray, leaf_size: int, max_depth: int | None,
) -> None:
    """Split every part that is no leaf with the level-set separator, one BFS each.

    A part the separator finds disconnected is split into its components,
    in order of their lowest vertex: component ``k`` stands at depth
    ``depth + k + 1`` (the last one at ``depth + k``, beside its
    predecessor), and once the components after ``k`` fit a leaf or
    reach ``max_depth`` they form one minimum-degree group.
    """
    cut = np.flatnonzero(~leaf)
    if not cut.size:
        return
    adj_ptr, adj = _induced(rounds.label, members, ptr, src, dst)
    for p in cut.tolist():
        a, b = int(ptr[p]), int(ptr[p + 1])
        e0 = adj_ptr[a]
        sub = Adjacency(b - a, adj_ptr[a : b + 1] - e0, adj[e0 : adj_ptr[b]])
        v, lo, depth = members[a:b], int(rounds.lo[p]), int(rounds.depth[p])
        sep = levelset_separator(sub)
        if sep.left.size == 0 or sep.right.size == 0:
            rounds.group(v, lo)
        elif sep.separator.size:
            nl, nr = sep.left.shape[0], sep.right.shape[0]
            rounds.part(v[sep.left], lo, depth + 1)
            rounds.part(v[sep.right], lo + nl, depth + 1)
            rounds.group(v[sep.separator], lo + nl + nr)
        else:
            _components(rounds, sub, v, lo, depth, leaf_size, max_depth)


def _components(
    rounds: _Rounds, sub: Adjacency, v: np.ndarray, lo: int, depth: int,
    leaf_size: int, max_depth: int | None,
) -> None:
    """File a disconnected part's components as parts, and perhaps the rest as one group."""
    comp = connected_components(sub)
    comp_ptr = ptr_from_counts(np.bincount(comp))
    last = comp_ptr.shape[0] - 2
    depths = depth + np.minimum(np.arange(last + 1) + 1, last)
    k = np.arange(last - 1)  # the components the rest may follow as one group
    stop = sub.n - comp_ptr[k + 1] <= leaf_size
    if max_depth is not None:
        stop |= depth + k + 1 >= max_depth
    if stop.any():
        first = int(np.argmax(stop))
        rest = comp > first
        rounds.group(v[rest], lo + int(comp_ptr[first + 1]))
        keep = ~rest
        rounds.parts(v[keep], comp[keep], lo + comp_ptr[: first + 1], depths[: first + 1])
    else:
        rounds.parts(v, comp, lo + comp_ptr[:-1], depths)


def _order_groups(g: Adjacency, rounds: _Rounds) -> np.ndarray:
    """Order every group by minimum degree into its output range."""
    members, ptr = _members(rounds.in_group, rounds.ngroups)
    group_lo = np.concatenate(rounds.group_lo)
    out = np.empty(g.n, dtype=np.int64)
    size = np.diff(ptr)
    one = size == 1  # what minimum degree gives, without building its state
    out[group_lo[one]] = members[ptr[:-1][one]]
    many = np.flatnonzero(size > 1)
    if many.size:
        adj_ptr, adj = _induced(rounds.in_group, members, ptr, segment_ids(g.indptr), g.indices)
        adj_ptr, adj = adj_ptr.tolist(), adj.tolist()
        starts, group_lo = ptr.tolist(), group_lo.tolist()
        for k in many.tolist():
            a, b, lo = starts[k], starts[k + 1], group_lo[k]
            rows = [set(adj[adj_ptr[i] : adj_ptr[i + 1]]) for i in range(a, b)]
            out[lo : lo + b - a] = members[a:b][_eliminate(rows)]
    return out
