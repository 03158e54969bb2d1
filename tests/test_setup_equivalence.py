"""The array-native set-up stages against their loop oracles, bit for bit.

``tests/_setup_oracles.py`` holds the per-column / per-entry bodies the
library ran before ordering, symbolic analysis and multifrontal assembly
became array programs.  Nothing may differ: the permutation, the
elimination tree, the pattern of L, the supernode partition, every
supernode's rows and parent, and every byte (plus layout and dtype) of
every factor block.  At the spine sizes the column pattern and the
supernode rows are also held to the two array programs they replaced
(one ``np.unique`` per etree depth, one over every entry of L).
Factor-bit preservation leans on ``np.linalg.cholesky`` referencing only
the lower triangle of its input, on the direct ``dtrtrs`` call making the
call ``solve_triangular`` makes, and on ``a @ a.T`` taking one BLAS route
whatever surrounds it, and the nested-dissection rounds on ``lexsort``
keeping ties in vertex order and on ``reduceat(axis=0)``, which is why CI
runs this file at the numpy / scipy floors too.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import ParallelSparseSolver
from repro.exec import fused_certificate_for
from repro.experiments.matrices import get_workload
from repro.graph.structure import adjacency_from_matrix
from repro.mapping.subtree_subcube import subtree_to_subcube
from repro.numeric.supernodal import cholesky_supernodal
from repro.ordering.api import METHODS
from repro.ordering.minimum_degree import minimum_degree
from repro.ordering.nested_dissection import _induced, _members, nested_dissection
from repro.sparse.build import from_triplets
from repro.sparse.csc import SymCSC
from repro.sparse.generators import (
    anisotropic_laplacian,
    fe_mesh_2d,
    fe_mesh_3d,
    graded_mesh_2d,
    grid2d_laplacian,
    grid3d_laplacian,
    random_spd,
)
from repro.symbolic import pattern
from repro.symbolic.analyze import analyze
from repro.symbolic.etree import elimination_tree
from repro.symbolic.pattern import symbolic_factor_pattern
from repro.symbolic.postorder import relabel_tree
from repro.symbolic.stree import build_supernodal_tree
from repro.symbolic.supernodes import find_supernodes
from repro.util.segments import segment_ids

from tests import _setup_oracles as oracle

random_spd_matrices = st.builds(
    random_spd,
    n=st.integers(2, 40),
    density=st.floats(0.02, 0.6),
    seed=st.integers(0, 2**16),
)


def disconnected() -> object:
    """Two 2-D grids and an isolated vertex, no coordinates: the level-set
    separator's empty-separator branch."""
    parts = [grid2d_laplacian(4), grid2d_laplacian(3)]
    rows, cols, vals, offset = [], [], [], 0
    for part in parts:
        column = np.repeat(np.arange(part.n), np.diff(part.indptr))
        rows.append(part.indices + offset)
        cols.append(column + offset)
        vals.append(part.data)
        offset += part.n
    rows.append(np.array([offset]))
    cols.append(np.array([offset]))
    vals.append(np.array([2.0]))
    return from_triplets(offset + 1, np.concatenate(rows), np.concatenate(cols),
                         np.concatenate(vals))


FIXED = {
    "grid2d(7)": lambda: grid2d_laplacian(7),
    "grid2d(12)": lambda: grid2d_laplacian(12),
    "grid3d(4)": lambda: grid3d_laplacian(4),
    "fe_mesh_3d(4)": lambda: fe_mesh_3d(4, seed=3),
    "n=1": lambda: from_triplets(1, np.array([0]), np.array([0]), np.array([3.0])),
    "diagonal": lambda: from_triplets(6, np.arange(6), np.arange(6), np.arange(1.0, 7.0)),
    "disconnected": disconnected,
}


def assert_same_symbolic(new, old) -> None:
    assert np.array_equal(new.perm.perm, old.perm.perm)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(new.a_perm, name), getattr(old.a_perm, name)), name
    for name in ("etree_parent", "l_indptr", "l_indices"):
        got, want = getattr(new, name), getattr(old, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(new.partition.boundaries, old.partition.boundaries)
    assert_same_tree(new.stree, old.stree)


def assert_same_tree(new, old) -> None:
    assert np.array_equal(new.parent, old.parent)
    assert np.array_equal(new.level, old.level)
    assert new.children == old.children
    for got, want in zip(new.supernodes, old.supernodes, strict=True):
        assert (got.index, got.col_lo, got.col_hi) == (want.index, want.col_lo, want.col_hi)
        assert got.rows.dtype == np.int64 and got.rows.flags.c_contiguous
        assert np.array_equal(got.rows, want.rows)


def assert_same_pattern(got, want) -> None:
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def assert_same_blocks(new, old) -> None:
    for got, want in zip(new.blocks, old.blocks, strict=True):
        assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.owndata
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_pipeline_matches(a, method: str, relax: int):
    new, old = analyze(a, method=method, relax=relax), oracle.analyze(a, method=method, relax=relax)
    assert_same_symbolic(new, old)
    new_factor, old_factor = cholesky_supernodal(new), oracle.cholesky_supernodal(old)
    assert_same_blocks(new_factor, old_factor)
    return (new, new_factor), (old, old_factor)


# ---------------------------------------------------------------- pipeline
@pytest.mark.parametrize("relax", [0, 2])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", FIXED)
def test_pipeline_matches_the_loop_oracles(name, method, relax):
    assert_pipeline_matches(FIXED[name](), method, relax)


@settings(max_examples=20, deadline=None)
@given(a=random_spd_matrices)
def test_pipeline_matches_on_random_spd(a):
    for method in METHODS:
        for relax in (0, 2):
            assert_pipeline_matches(a, method, relax)


@pytest.mark.slow
@pytest.mark.parametrize("build", [
    lambda: get_workload("hsct21954").matrix(),
    lambda: grid3d_laplacian(16),
    lambda: grid2d_laplacian(96),
    lambda: grid3d_laplacian(12),
], ids=["hsct21954", "grid3d(16)", "grid2d(96)", "grid3d(12)"])
def test_spine_matrices_keep_digest_and_answer(build):
    a = build()
    sides = assert_pipeline_matches(a, "nested_dissection", 0)
    b = np.random.default_rng(20).standard_normal((a.n, 3))
    digests, answers = [], []
    for sym, factor in sides:
        solver = ParallelSparseSolver(a, verify=False)
        solver.symbolic, solver.factor = sym, factor
        solver.assign = subtree_to_subcube(sym.stree, 1)
        digests.append(fused_certificate_for(sym.stree).digest)
        answers.append(solver.solve(b, backend="fused")[0].tobytes())
    assert digests[0] == digests[1]
    assert answers[0] == answers[1]


# ---------------------------------------------------------------- ordering
#: ``None`` stands for the graph's own size: one leaf, no cut at all.
leaf_sizes = st.sampled_from([1, 2, 4, 8, None])
max_depths = st.sampled_from([None, 0, 1, 3])
seeds = st.integers(0, 2**16)
meshes = st.one_of(
    st.builds(grid2d_laplacian, st.integers(2, 30)),
    st.builds(grid3d_laplacian, st.integers(2, 9)),
    st.builds(fe_mesh_2d, st.integers(2, 12), seed=seeds),
    st.builds(fe_mesh_3d, st.integers(2, 6), seed=seeds),
    st.builds(graded_mesh_2d, st.integers(2, 16), grading=st.floats(1.0, 3.0), seed=seeds),
    st.builds(anisotropic_laplacian, st.integers(2, 20), epsilon=st.floats(1e-4, 1.0)),
)


@st.composite
def forests(draw):
    """A shuffled random forest, with no coordinates, scattered integer
    coordinates, or collinear ones (ties in the key and in the spread)."""
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(seeds))
    roots = draw(st.floats(0.0, 0.5))
    child = np.flatnonzero(rng.random(n) >= roots)
    child = child[child > 0]
    parent = (rng.random(child.size) * child).astype(np.int64)
    relabel = rng.permutation(n)
    rows, cols = relabel[np.maximum(child, parent)], relabel[np.minimum(child, parent)]
    deg = np.bincount(np.concatenate([rows, cols]), minlength=n)
    kind = draw(st.sampled_from(["none", "scattered", "collinear"]))
    coords = None
    if kind == "scattered":
        coords = rng.integers(0, 5, size=(n, 2)).astype(float)
    elif kind == "collinear":
        direction = draw(st.sampled_from([(1.0, 1.0), (1.0, 2.0, 0.0), (0.0, 0.0, 1.0)]))
        coords = np.outer(rng.integers(0, 4, size=n), direction)
    return from_triplets(n, np.concatenate([rows, np.arange(n)]),
                         np.concatenate([cols, np.arange(n)]),
                         np.concatenate([-np.ones(rows.size), deg + 1.0]), coords=coords)


def assert_same_dissection(a, leaf_size, max_depth) -> None:
    g = adjacency_from_matrix(a)
    leaf = max(g.n, 1) if leaf_size is None else leaf_size
    got = nested_dissection(g, leaf_size=leaf, max_depth=max_depth).perm
    want = oracle.nested_dissection(g, leaf_size=leaf, max_depth=max_depth).perm
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(a=meshes, leaf_size=leaf_sizes, max_depth=max_depths)
def test_nested_dissection_matches_the_recursion_on_meshes(a, leaf_size, max_depth):
    assert_same_dissection(a, leaf_size, max_depth)


@settings(max_examples=60, deadline=None)
@given(a=forests(), leaf_size=leaf_sizes, max_depth=max_depths)
def test_nested_dissection_matches_the_recursion_on_forests(a, leaf_size, max_depth):
    assert_same_dissection(a, leaf_size, max_depth)


@settings(max_examples=30, deadline=None)
@given(a=random_spd_matrices, leaf_size=leaf_sizes, max_depth=max_depths)
def test_nested_dissection_matches_the_recursion_without_coordinates(a, leaf_size, max_depth):
    assert_same_dissection(a, leaf_size, max_depth)


@pytest.mark.parametrize("name", ["disconnected", "diagonal", "n=1"])
@pytest.mark.parametrize("max_depth", [None, 0, 1, 3])
@pytest.mark.parametrize("leaf_size", [1, 2, 4, 8])
def test_nested_dissection_matches_the_recursion_on_components(name, leaf_size, max_depth):
    assert_same_dissection(FIXED[name](), leaf_size, max_depth)


@pytest.mark.parametrize("max_depth", [None, 0, 1, 3])
@pytest.mark.parametrize("leaf_size", [1, 2, 4, 8, None])
@pytest.mark.parametrize("build", [lambda: grid2d_laplacian(30), lambda: grid3d_laplacian(9)],
                         ids=["grid2d(30)", "grid3d(9)"])
def test_nested_dissection_matches_the_recursion_at_the_largest_sizes(build, leaf_size, max_depth):
    assert_same_dissection(build(), leaf_size, max_depth)


@settings(max_examples=40, deadline=None)
@given(a=st.one_of(random_spd_matrices, meshes, forests()))
def test_minimum_degree_matches_the_pairwise_kernel(a):
    g = adjacency_from_matrix(a)
    got, want = minimum_degree(g).perm, oracle.minimum_degree(g).perm
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ------------------------------------------------------------------ stages
@settings(max_examples=30, deadline=None)
@given(a=random_spd_matrices, data=st.data())
def test_graph_primitives(a, data):
    g, want = adjacency_from_matrix(a), oracle.adjacency_from_matrix(a)
    assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)
    assert g.indices.dtype == want.indices.dtype

    # Every part's induced subgraph out of one pass, against the loop
    # subgraph of each part's vertices; label -1 is in no part.
    label = np.array(data.draw(st.lists(st.integers(-1, 3), min_size=a.n, max_size=a.n)))
    members, ptr = _members(label, 4)
    adj_ptr, adj = _induced(label, members, ptr, segment_ids(g.indptr), g.indices)
    assert adj.dtype == np.int64
    for k in range(4):
        sub, mapping = oracle.subgraph(g, np.flatnonzero(label == k))
        assert np.array_equal(members[ptr[k] : ptr[k + 1]], mapping)
        rows = adj_ptr[ptr[k] : ptr[k + 1] + 1]
        assert np.array_equal(rows - rows[0], sub.indptr)
        assert np.array_equal(adj[rows[0] : rows[-1]], sub.indices)


@settings(max_examples=30, deadline=None)
@given(a=random_spd_matrices, seed=st.integers(0, 2**16), relax=st.sampled_from([0, 2]))
def test_symbolic_stages_under_a_random_symmetric_permutation(a, seed, relax):
    # A random relabelling is not a postorder, so the pattern, supernode
    # and tree stages see etrees the analyze() driver never hands them.
    perm = np.random.default_rng(seed).permutation(a.n)
    b, b_want = a.permuted(perm), oracle.permuted(a, perm)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(b, name), getattr(b_want, name)), name

    parent = elimination_tree(b)
    assert parent.dtype == np.int64 and np.array_equal(parent, oracle.elimination_tree(b))

    indptr, indices = symbolic_factor_pattern(b, parent)
    assert_same_pattern((indptr, indices), oracle.symbolic_factor_pattern(b, parent))

    counts = np.diff(indptr)
    partition = find_supernodes(parent, counts, relax=relax)
    want = oracle.find_supernodes(parent, counts, relax=relax)
    assert np.array_equal(partition.boundaries, want.boundaries)

    stree = build_supernodal_tree(indptr, indices, partition)
    stree_want = oracle.build_supernodal_tree(indptr, indices, partition)
    assert np.array_equal(stree.parent, stree_want.parent)
    for got, sn in zip(stree.supernodes, stree_want.supernodes, strict=True):
        assert np.array_equal(got.rows, sn.rows)


SPINE = {
    "grid3d(16)": lambda: grid3d_laplacian(16),
    "grid2d(96)": lambda: grid2d_laplacian(96),
    "grid3d(12)": lambda: grid3d_laplacian(12),
    "hsct21954": lambda: get_workload("hsct21954").matrix(),
}


@pytest.mark.parametrize("name", SPINE)
def test_chain_rounds_match_the_per_depth_references_at_spine_sizes(name):
    sym = analyze(SPINE[name]())
    indptr, indices, parent = sym.l_indptr, sym.l_indices, sym.etree_parent
    assert_same_pattern((indptr, indices),
                        oracle.symbolic_factor_pattern_per_depth(sym.a_perm, parent))
    for relax in (0, 2, 16, 64):
        partition = find_supernodes(parent, np.diff(indptr), relax=relax)
        stree = build_supernodal_tree(indptr, indices, partition)
        assert_same_tree(stree, oracle.build_supernodal_tree_keyed(indptr, indices, partition))
        if relax == 16:  # the solver's default: its fronts against solve_triangular's bits
            relaxed = dataclasses.replace(sym, partition=partition, stree=stree)
            assert_same_blocks(cholesky_supernodal(relaxed), oracle.cholesky_supernodal(relaxed))


def from_edges(n: int, edges: list[tuple[int, int]]) -> SymCSC:
    """A diagonally dominant matrix with one off-diagonal entry per edge,
    in natural order (the etree is read off the edges as given)."""
    lo, hi = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    rows, cols = np.maximum(lo, hi), np.minimum(lo, hi)
    deg = np.bincount(np.concatenate([rows, cols]), minlength=n)
    return from_triplets(n, np.concatenate([rows, np.arange(n)]),
                         np.concatenate([cols, np.arange(n)]),
                         np.concatenate([-np.ones(rows.size), deg + 1.0]))


#: Etree shapes in natural order, with the chain tree's depth: the number
#: of rounds the pattern takes.
SHAPES = {
    # One chain: every column is its predecessor's only parent.
    "path": (lambda: from_edges(20_000, [(j, j + 1) for j in range(19_999)]), 1),
    # Every leaf hangs off the last column, which has many children.
    "star": (lambda: from_edges(50, [(j, 49) for j in range(49)]), 2),
    # The hub eliminated first fills everything in: one chain again.
    "hub first": (lambda: from_edges(50, [(0, j) for j in range(1, 50)]), 1),
    # A star whose hub leads a path into a second star; a third star; and
    # isolated columns.
    "forest": (lambda: from_edges(30, [(0, 4), (1, 4), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7),
                                       (7, 8), (8, 9), (9, 12), (10, 12), (11, 12),
                                       (20, 25), (21, 25)]), 3),
}


@pytest.mark.parametrize("name", SHAPES)
def test_pattern_takes_one_round_per_depth_of_the_chain_tree(name):
    build, rounds = SHAPES[name]
    a = build()
    parent = elimination_tree(a)
    carries, real = [], pattern._chain_round

    def round_body(*args):
        out = real(*args)
        carries.append(out[-1])
        return out

    with mock.patch.object(pattern, "_chain_round", wraps=round_body) as body:
        got = symbolic_factor_pattern(a, parent)
    assert body.call_count == rounds
    assert_same_pattern(got, oracle.symbolic_factor_pattern_per_depth(a, parent))
    if a.n <= 50:
        assert_same_pattern(got, oracle.symbolic_factor_pattern(a, parent))
    # A chain hands up its last column's rows without the first of them,
    # the parent: the textbook recurrence's "each without its first entry".
    assert np.array_equal(np.sort(np.concatenate(carries)), handed_up(parent, *got))


def handed_up(parent, indptr, indices) -> np.ndarray:
    """``row * n + parent`` of every row below each chain's parent, from
    the chain's last column of L; chains as ``find_supernodes`` merges them."""
    n = parent.shape[0]
    nkids = np.bincount(parent[parent != -1], minlength=n)
    keys = [int(r) * n + int(parent[j]) for j in range(n) if parent[j] != -1
            and not (parent[j] == j + 1 and nkids[j + 1] == 1)
            for r in indices[indptr[j] + 2 : indptr[j + 1]]]
    return np.sort(np.array(keys, dtype=np.int64))


def test_a_stored_negative_zero_factors_like_an_accumulated_one(sym_grid8):
    # Builders never store -0.0 (summing duplicates into zeros clears the
    # sign), but a hand-made SymCSC can; accumulation into a zeroed front
    # stored it as +0.0, and the sign would survive into the factor block.
    a = sym_grid8.a_perm
    data = a.data.copy()
    data[a.indptr[0] + 1] = -0.0
    sym = dataclasses.replace(sym_grid8, a_perm=SymCSC(a.n, a.indptr, a.indices, data))
    assert_same_blocks(cholesky_supernodal(sym), oracle.cholesky_supernodal(sym))


def test_relabel_tree_matches(sym_grid8):
    from repro.ordering.permutation import Permutation

    parent = sym_grid8.etree_parent
    perm = Permutation(np.random.default_rng(5).permutation(parent.shape[0]))
    assert np.array_equal(relabel_tree(parent, perm), oracle.relabel_tree(parent, perm))


# ------------------------------------------------------------------ memory
def high_water(stage, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        stage(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [lambda: grid2d_laplacian(48), lambda: grid3d_laplacian(10)],
                         ids=["grid2d(48)", "grid3d(10)"])
def test_factorization_high_water_mark_stays_within_a_tenth_of_the_oracle(build):
    """Updates are released when consumed and the index vectors are O(nnz(A))."""
    sym = analyze(build())
    assert high_water(cholesky_supernodal, sym) <= 1.10 * high_water(oracle.cholesky_supernodal, sym)


@pytest.mark.parametrize("build", [lambda: grid2d_laplacian(48), lambda: grid3d_laplacian(10)],
                         ids=["grid2d(48)", "grid3d(10)"])
def test_pattern_high_water_mark_stays_within_a_tenth_of_the_per_depth_reference(build):
    """Each round's expansion is sorted where it lands; no nnz(L) array is
    concatenated or sorted whole."""
    sym = analyze(build())
    args = (sym.a_perm, sym.etree_parent)
    assert (high_water(symbolic_factor_pattern, *args)
            <= 1.10 * high_water(oracle.symbolic_factor_pattern_per_depth, *args))
