"""Loop implementations of the set-up stages, kept as test oracles.

These are the per-column / per-entry bodies that ``src/repro`` ran before
the set-up stages became array programs, moved here unchanged (methods
turned into functions taking the object first), among them the recursive
nested dissection with its pairwise minimum degree and geometric
bisection.  They define what the array programs must reproduce
*exactly*: the same permutation, the same patterns, the same supernode
rows and every byte of every factor block.  Two earlier array programs
sit beside them as the fast references at sizes the loops cannot reach:
the column pattern one ``np.unique`` per etree depth, and the supernode
rows one ``np.unique`` over every entry of L.
``tests/test_setup_equivalence.py`` compares the two; nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from unittest import mock

import numpy as np
from scipy.linalg import solve_triangular

from repro.graph.separators import Separation, levelset_separator
from repro.graph.structure import Adjacency
from repro.graph.traversal import connected_components
from repro.numeric.supernodal import SupernodalFactor
from repro.ordering.permutation import Permutation
from repro.sparse.build import from_triplets
from repro.sparse.csc import SymCSC
from repro.symbolic.analyze import SymbolicFactor
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.postorder import postorder, tree_levels
from repro.symbolic.stree import Supernode, SupernodalTree
from repro.symbolic.supernodes import SupernodePartition
from repro.util.segments import ptr_from_counts, run_starts, segment_ids
from repro.util.validation import check_positive, require


# ------------------------------------------------------------------- graph
def adjacency_from_matrix(a: SymCSC) -> Adjacency:
    indptr, indices = a.pattern_full()
    mask = np.ones(indices.shape[0], dtype=bool)
    for v in range(a.n):
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        mask[lo:hi] &= indices[lo:hi] != v
    new_ptr = np.zeros(a.n + 1, dtype=np.int64)
    for v in range(a.n):
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        new_ptr[v + 1] = new_ptr[v] + int(mask[lo:hi].sum())
    return Adjacency(a.n, new_ptr, indices[mask], a.coords)


def subgraph(g: Adjacency, vertices: np.ndarray) -> tuple[Adjacency, np.ndarray]:
    vertices = np.asarray(vertices, dtype=np.int64)
    local = -np.ones(g.n, dtype=np.int64)
    local[vertices] = np.arange(vertices.shape[0])
    sub_ptr = np.zeros(vertices.shape[0] + 1, dtype=np.int64)
    chunks = []
    for k, v in enumerate(vertices):
        nb = local[g.neighbors(int(v))]
        nb = nb[nb >= 0]
        chunks.append(nb)
        sub_ptr[k + 1] = sub_ptr[k] + nb.shape[0]
    sub_idx = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    coords = g.coords[vertices] if g.coords is not None else None
    return Adjacency(vertices.shape[0], sub_ptr, sub_idx, coords), vertices.copy()


def _boundary_separator(g: Adjacency, side_mask: np.ndarray) -> Separation:
    sep_mask = np.zeros(g.n, dtype=bool)
    for v in np.flatnonzero(side_mask):
        nb = g.neighbors(int(v))
        if nb.size and bool(np.any(~side_mask[nb])):
            sep_mask[v] = True
    left = np.flatnonzero(side_mask & ~sep_mask)
    right = np.flatnonzero(~side_mask)
    return Separation(left, np.flatnonzero(sep_mask), right)


def geometric_bisection(g: Adjacency) -> Separation:
    if g.coords is None:
        raise ValueError("geometric bisection requires vertex coordinates")
    spread = g.coords.max(axis=0) - g.coords.min(axis=0)
    axis = int(np.argmax(spread))
    key = g.coords[:, axis]
    # Jitter-free median split: vertices strictly below the median value of
    # the chosen axis form one side; ties go by vertex number for
    # determinism.
    order = np.lexsort((np.arange(g.n), key))
    half = g.n // 2
    side_mask = np.zeros(g.n, dtype=bool)
    side_mask[order[:half]] = True
    return _boundary_separator(g, side_mask)


def find_separator(g: Adjacency) -> Separation:
    if g.coords is not None:
        return geometric_bisection(g)
    return levelset_separator(g)


# ---------------------------------------------------------------- ordering
def minimum_degree(g: Adjacency) -> Permutation:
    n = g.n
    adj: list[set[int]] = [set(map(int, g.neighbors(v))) for v in range(n)]
    eliminated = np.zeros(n, dtype=bool)
    heap: list[tuple[int, int]] = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)

    for k in range(n):
        # Pop until we find a live entry whose recorded degree is current.
        while True:
            deg, v = heapq.heappop(heap)
            if not eliminated[v] and deg == len(adj[v]):
                break
        order[k] = v
        eliminated[v] = True
        nb = adj[v]
        # Clique the neighbourhood (this is where fill is modeled).
        for u in nb:
            adj[u].discard(v)
        nb_list = sorted(nb)
        for i, u in enumerate(nb_list):
            for w in nb_list[i + 1 :]:
                if w not in adj[u]:
                    adj[u].add(w)
                    adj[w].add(u)
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return Permutation(order)


def nested_dissection(g: Adjacency, *, leaf_size: int = 8, max_depth: int | None = None) -> Permutation:
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
        sub, mapping = subgraph(g, side)
        _dissect(sub, to_global[mapping], out, leaf_size, max_depth, depth + 1)
    # Separator vertices are numbered last => they rise to the top of the
    # elimination tree and become the root supernode of this subproblem.
    if sep.separator.size:
        sub, mapping = subgraph(g, sep.separator)
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
            sub, mapping = subgraph(g, np.flatnonzero(labels > k))
            _order_leaf(sub, to_global[mapping], out)
            return
    sub, mapping = component(last)
    _dissect(sub, to_global[mapping], out, leaf_size, max_depth, depth + last)


def _order_leaf(g: Adjacency, to_global: np.ndarray, out: list[int]) -> None:
    if g.n == 1:  # what minimum degree gives, without building its state
        out.append(int(to_global[0]))
        return
    out.extend(int(to_global[v]) for v in minimum_degree(g).perm)


# ------------------------------------------------------------------ sparse
def permuted(a: SymCSC, perm: np.ndarray) -> SymCSC:
    perm = np.asarray(perm, dtype=np.int64)
    require(perm.shape == (a.n,), "perm must have length n")
    inv = np.empty(a.n, dtype=np.int64)
    inv[perm] = np.arange(a.n)
    rows, cols, vals = [], [], []
    for j in range(a.n):
        r, v = a.column(j)
        rows.append(inv[r])
        cols.append(np.full(r.shape, inv[j], dtype=np.int64))
        vals.append(v)
    coords = a.coords[perm] if a.coords is not None else None
    return from_triplets(
        a.n,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
        coords=coords,
    )


# ---------------------------------------------------------------- symbolic
def elimination_tree(a: SymCSC) -> np.ndarray:
    n = a.n
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    ancestor = np.full(n, NO_PARENT, dtype=np.int64)

    row_cols: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        rows, _ = a.column(j)
        for i in rows:
            if int(i) > j:
                row_cols[int(i)].append(j)

    for i in range(n):
        for j in row_cols[i]:
            k = j
            while ancestor[k] != NO_PARENT and ancestor[k] != i:
                nxt = ancestor[k]
                ancestor[k] = i
                k = nxt
            if ancestor[k] == NO_PARENT:
                ancestor[k] = i
                parent[k] = i
    return parent


def relabel_tree(parent: np.ndarray, perm: Permutation) -> np.ndarray:
    inv = perm.inverse().perm
    n = parent.shape[0]
    out = np.full(n, NO_PARENT, dtype=np.int64)
    for old in range(n):
        p = int(parent[old])
        if p != NO_PARENT:
            out[inv[old]] = inv[p]
    return out


def symbolic_factor_pattern(a: SymCSC, parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = a.n
    cols_of_row: list[list[int]] = [[] for _ in range(n)]
    row_lists: list[list[int]] = [[] for _ in range(n)]
    for k in range(n):
        rows, _ = a.column(k)
        for i in rows:
            if int(i) > k:
                row_lists[int(i)].append(k)

    mark = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        mark[i] = i
        for k in row_lists[i]:
            j = k
            while j != NO_PARENT and j < i and mark[j] != i:
                cols_of_row[i].append(j)
                mark[j] = i
                j = int(parent[j])

    counts = np.ones(n, dtype=np.int64)  # diagonal entries
    for i in range(n):
        for j in cols_of_row[i]:
            counts[j] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    fill = indptr[:-1].copy()
    for j in range(n):
        indices[fill[j]] = j  # diagonal leads each column
        fill[j] += 1
    for i in range(n):
        for j in sorted(cols_of_row[i]):
            indices[fill[j]] = i
            fill[j] += 1
    return indptr, indices


def find_supernodes(
    parent: np.ndarray, col_counts: np.ndarray, *, relax: int = 0
) -> SupernodePartition:
    n = parent.shape[0]
    require(col_counts.shape[0] == n, "col_counts must match parent length")
    nchildren = np.zeros(n, dtype=np.int64)
    for j in range(n):
        p = int(parent[j])
        if p != NO_PARENT:
            nchildren[p] += 1

    starts = [0]
    zeros = 0  # artificial zeros in the first column of the current supernode
    for j in range(1, n):
        chain = int(parent[j - 1]) == j and nchildren[j] == 1
        # Column j joining adds this many zeros to every earlier column.
        extra = int(col_counts[j]) - int(col_counts[j - 1]) + 1
        if chain and zeros + extra <= relax:
            zeros += extra
        else:
            starts.append(j)
            zeros = 0
    return SupernodePartition(np.asarray(starts + [n], dtype=np.int64))


def build_supernodal_tree(
    l_indptr: np.ndarray, l_indices: np.ndarray, partition: SupernodePartition
) -> SupernodalTree:
    col_to_sn = np.empty(partition.n, dtype=np.int64)
    for s in range(partition.nsuper):
        lo, hi = partition.columns(s)
        col_to_sn[lo:hi] = s
    nodes: list[Supernode] = []
    parent = np.full(partition.nsuper, NO_PARENT, dtype=np.int64)
    for s in range(partition.nsuper):
        lo, hi = partition.columns(s)
        below: set[int] = set()
        for j in range(lo, hi):
            col_rows = l_indices[l_indptr[j] : l_indptr[j + 1]]
            for i in col_rows:
                if int(i) >= hi:
                    below.add(int(i))
        below_arr = np.asarray(sorted(below), dtype=np.int64)
        rows = np.concatenate([np.arange(lo, hi, dtype=np.int64), below_arr])
        nodes.append(Supernode(index=s, col_lo=lo, col_hi=hi, rows=rows))
        if below_arr.size:
            parent[s] = int(col_to_sn[below_arr[0]])
    return SupernodalTree(supernodes=nodes, parent=parent)


def symbolic_factor_pattern_per_depth(
    a: SymCSC, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The column pattern one ``np.unique`` per depth of the column etree."""
    n = a.n
    parent = np.asarray(parent, dtype=np.int64)
    depth = tree_levels(parent)
    nlevels = int(depth.max()) + 1 if n else 0

    # Strictly-lower entries of A as keys, grouped by the depth of their column.
    column = segment_ids(a.indptr)
    strict = a.indices > column
    a_depth = depth[column[strict]]
    by_depth = np.argsort(a_depth, kind="stable")
    a_keys = (column[strict] * n + a.indices[strict])[by_depth]
    a_ptr = ptr_from_counts(np.bincount(a_depth, minlength=nlevels))

    # Deepest level first: ``carry`` holds what the level below hands up,
    # already re-keyed to the parent column.
    levels = []
    carry = np.empty(0, dtype=np.int64)
    for d in range(nlevels - 1, -1, -1):
        keys = np.unique(np.concatenate([carry, a_keys[a_ptr[d] : a_ptr[d + 1]]]))
        levels.append(keys)
        col = keys // n
        # The smallest row of a column's structure is its etree parent;
        # everything after it belongs to the parent's structure too.
        rest = np.flatnonzero(~run_starts(col))
        col = col[rest]
        carry = keys[rest] + (parent[col] - col) * n

    # From here on every array is nnz(L) long; each is dropped or reused
    # in place as soon as it has been read, which holds the peak of this
    # function near three such arrays.
    keys = np.concatenate(levels) if levels else carry
    del levels, carry
    col = keys // n
    keys -= col * n  # now the row of every below-diagonal entry
    indptr = ptr_from_counts(np.bincount(col, minlength=n) + 1)
    # A column lives at one depth, so its rows are one sorted run of
    # ``keys``: the k-th of them goes k slots behind the column's diagonal.
    first = np.flatnonzero(run_starts(col))
    shift = indptr[:-1] + 1
    shift[col[first]] -= first
    slot = shift[col]
    del col
    slot += np.arange(slot.shape[0])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    indices[indptr[:-1]] = np.arange(n)  # diagonal leads each column
    indices[slot] = keys
    return indptr, indices


def build_supernodal_tree_keyed(
    l_indptr: np.ndarray,
    l_indices: np.ndarray,
    partition: SupernodePartition,
) -> SupernodalTree:
    """Supernode rows as one ``np.unique`` over ``supernode * n + row`` keys
    of every entry of L below its supernode."""
    n, ns = partition.n, partition.nsuper
    bounds = partition.boundaries
    col_to_sn = partition.column_to_supernode()
    keys = col_to_sn[segment_ids(l_indptr)]  # owning supernode of every entry of L
    below = l_indices >= bounds[1:][keys]
    keys = keys[below]
    keys *= n
    keys += l_indices[below]
    keys = np.unique(keys)
    owner = keys // n
    below_rows = keys - owner * n
    nbelow = np.bincount(owner, minlength=ns)
    below_ptr = ptr_from_counts(nbelow)[:-1]

    parent = np.full(ns, NO_PARENT, dtype=np.int64)
    has_below = nbelow > 0
    parent[has_below] = col_to_sn[below_rows[below_ptr[has_below]]]

    # All row lists live in one array, supernode after supernode: the
    # supernode's own columns, then its sorted below-rows.
    widths = np.diff(bounds)
    ptr = ptr_from_counts(widths + nbelow)
    rows = np.empty(int(ptr[-1]), dtype=np.int64)
    columns = np.arange(n)
    rows[ptr[col_to_sn] + columns - bounds[col_to_sn]] = columns
    rows[(ptr[:-1] + widths - below_ptr)[owner] + np.arange(keys.shape[0])] = below_rows
    ptr, bounds = ptr.tolist(), bounds.tolist()
    nodes = [
        Supernode(index=s, col_lo=bounds[s], col_hi=bounds[s + 1], rows=rows[ptr[s] : ptr[s + 1]])
        for s in range(ns)
    ]
    return SupernodalTree(supernodes=nodes, parent=parent)


# ----------------------------------------------------------------- numeric
def _dense_cholesky(a: np.ndarray) -> np.ndarray:
    return np.linalg.cholesky(np.tril(a) + np.tril(a, -1).T)


def _trsm_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    if l.shape[0] == 0:
        return b.copy()
    return solve_triangular(l, b, lower=True, check_finite=False)


def cholesky_supernodal(sym: SymbolicFactor) -> SupernodalFactor:
    a = sym.a_perm
    stree = sym.stree
    blocks: list[np.ndarray] = [None] * stree.nsuper  # type: ignore[list-item]
    pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for s in stree.topo_order():
        sn = stree.supernodes[s]
        n_s, t_s = sn.n, sn.t
        front = np.zeros((n_s, n_s))
        rows = sn.rows
        pos_of_global = {int(g): i for i, g in enumerate(rows)}

        for local_j in range(t_s):
            j = sn.col_lo + local_j
            a_rows, a_vals = a.column(j)
            for g, v in zip(a_rows, a_vals):
                front[pos_of_global[int(g)], local_j] += v

        for c in stree.children[s]:
            up_rows, up = pending.pop(c)
            idx = np.fromiter(
                (pos_of_global[int(g)] for g in up_rows), dtype=np.int64, count=up_rows.shape[0]
            )
            front[np.ix_(idx, idx)] += up

        diag = _dense_cholesky(front[:t_s, :t_s])
        below = _trsm_lower(diag, front[t_s:, :t_s].T).T if n_s > t_s else front[t_s:, :t_s]
        block = np.zeros((n_s, t_s))
        block[:t_s, :] = np.tril(diag)
        block[t_s:, :] = below
        blocks[s] = block

        if n_s > t_s:
            trailing = front[t_s:, t_s:]
            trailing = np.tril(trailing) + np.tril(trailing, -1).T
            update = trailing - below @ below.T
            pending[s] = (sn.below, update)

    if pending:
        raise AssertionError("unconsumed update matrices — broken assembly tree")
    return SupernodalFactor(stree=stree, blocks=blocks)


# ---------------------------------------------------------------- pipeline
def order(a: SymCSC, method: str) -> Permutation:
    """``repro.ordering.order`` with the recursive nested dissection and the
    pairwise minimum degree above, over the loop adjacency."""
    from repro.ordering import api

    if method == "nested_dissection":
        return nested_dissection(adjacency_from_matrix(a))
    if method == "minimum_degree":
        return minimum_degree(adjacency_from_matrix(a))
    with mock.patch("repro.ordering.api.adjacency_from_matrix", adjacency_from_matrix):
        return api.order(a, method)


def analyze(a: SymCSC, *, method: str = "nested_dissection", relax: int = 0) -> SymbolicFactor:
    """``repro.symbolic.analyze`` with every rewritten stage replaced by its oracle."""
    perm0 = order(a, method)
    a1 = permuted(a, perm0.perm)
    parent1 = elimination_tree(a1)
    post = postorder(parent1)
    if not np.array_equal(post.perm, np.arange(a.n)):
        perm = Permutation(perm0.perm[post.perm])
        a2 = permuted(a1, post.perm)
        parent2 = relabel_tree(parent1, post)
    else:
        perm, a2, parent2 = perm0, a1, parent1
    l_indptr, l_indices = symbolic_factor_pattern(a2, parent2)
    partition = find_supernodes(parent2, np.diff(l_indptr), relax=relax)
    stree = build_supernodal_tree(l_indptr, l_indices, partition)
    return SymbolicFactor(perm=perm, a_perm=a2, etree_parent=parent2, l_indptr=l_indptr,
                          l_indices=l_indices, partition=partition, stree=stree)
