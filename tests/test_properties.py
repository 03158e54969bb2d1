"""Property-based tests (hypothesis) over the core invariants.

Random SPD matrices are generated from random sparse graphs; every
pipeline stage must uphold its contract for all of them.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.solver import ParallelSparseSolver
from repro.graph.structure import adjacency_from_matrix
from repro.machine.events import TaskGraph, simulate
from repro.machine.spec import MachineSpec
from repro.numeric.supernodal import cholesky_supernodal
from repro.ordering.api import order
from repro.sparse.build import from_triplets
from repro.symbolic.analyze import analyze
from repro.symbolic.etree import NO_PARENT
from tests._oracles import critical_path, is_valid_separation
from tests._setup_oracles import find_separator

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def sparse_spd(draw, max_n=24):
    """Random connected SPD matrix with a spanning path + random edges."""
    n = draw(st.integers(3, max_n))
    extra = draw(st.integers(0, 2 * n))
    rng_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    rows = list(range(1, n))
    cols = list(range(0, n - 1))
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i != j:
            rows.append(max(i, j))
            cols.append(min(i, j))
    vals = -rng.uniform(0.1, 1.0, len(rows))
    deg = np.zeros(n)
    np.add.at(deg, rows, np.abs(vals))
    np.add.at(deg, cols, np.abs(vals))
    rows += list(range(n))
    cols += list(range(n))
    vals = np.concatenate([vals, deg + 0.5])
    return from_triplets(n, np.array(rows), np.array(cols), vals)


@SLOW
@given(a=sparse_spd())
def test_analyze_invariants(a):
    sym = analyze(a)
    n = a.n
    # permutation is a bijection (validated by Permutation) of the right size
    assert sym.perm.n == n
    # postordered etree: parent strictly above child
    for j, p in enumerate(sym.etree_parent):
        assert p == NO_PARENT or j < p < n
    # pattern: diagonal-first, sorted, within range
    for j in range(n):
        col = sym.l_indices[sym.l_indptr[j] : sym.l_indptr[j + 1]]
        assert col[0] == j and np.all(np.diff(col) > 0) and col[-1] < n
    # supernodes partition the columns
    assert sym.partition.n == n
    # supernode trapezoid sanity
    for sn in sym.stree.supernodes:
        assert 1 <= sn.t <= sn.n


@SLOW
@given(a=sparse_spd())
def test_factor_and_solve_property(a):
    sym = analyze(a)
    f = cholesky_supernodal(sym)
    l = f.to_dense()
    np.testing.assert_allclose(l @ l.T, sym.a_perm.to_dense(), atol=1e-8)


@SLOW
@given(a=sparse_spd(), p_log=st.integers(0, 3), nrhs=st.integers(1, 3))
def test_parallel_solve_matches_direct(a, p_log, nrhs):
    p = 1 << p_log
    solver = ParallelSparseSolver(a, p=p, b=2).prepare()
    rng = np.random.default_rng(0)
    b = rng.normal(size=(a.n, nrhs))
    x, rep = solver.solve(b)
    assert rep.residual < 1e-8


@SLOW
@given(a=sparse_spd(max_n=30))
def test_separator_property(a):
    g = adjacency_from_matrix(a)
    sep = find_separator(g)
    assert is_valid_separation(g, sep)
    assert sep.left.size + sep.separator.size + sep.right.size == g.n


@SLOW
@given(a=sparse_spd(max_n=30), method=st.sampled_from(["nested_dissection", "minimum_degree", "rcm"]))
def test_ordering_is_permutation(a, method):
    p = order(a, method)
    assert np.array_equal(np.sort(p.perm), np.arange(a.n))


@st.composite
def random_dag(draw):
    nproc = draw(st.integers(1, 6))
    ntasks = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    g = TaskGraph(nproc=nproc)
    for k in range(ntasks):
        g.add_task(int(rng.integers(nproc)), float(rng.uniform(0, 1)), priority=(k,))
    for dst in range(1, ntasks):
        for _ in range(int(rng.integers(0, 3))):
            src = int(rng.integers(0, dst))
            g.add_edge(src, dst, words=float(rng.integers(0, 100)))
    return g


@SLOW
@given(g=random_dag())
def test_simulator_invariants(g):
    spec = MachineSpec(t_flop=1e-6, t_s=1e-5, t_w=1e-6, t_call=0.0, topology="full")
    r = simulate(g, spec)
    # makespan bounds
    assert r.makespan >= critical_path(g, spec) - 1e-9
    work = sum(t.cost for t in g.tasks)
    assert r.makespan >= work / g.nproc - 1e-9
    assert r.makespan <= work + sum(
        spec.message_time(e.words) for e in g.edges
    ) + 1e-9
    # per-task causality
    for e in g.edges:
        assert r.start[e.dst] >= r.finish[e.src] - 1e-12 or g.tasks[e.src].proc == g.tasks[e.dst].proc
    # busy-time conservation
    for p in range(g.nproc):
        assert 0 <= r.busy[p] <= r.makespan + 1e-9


@SLOW
@given(
    n=st.integers(1, 40),
    t_frac=st.floats(0.1, 1.0),
    b=st.integers(1, 8),
    q_log=st.integers(0, 3),
)
def test_supernode_blocks_partition_property(n, t_frac, b, q_log):
    from repro.core.blocks import SupernodeBlocks
    from repro.mapping.subtree_subcube import ProcSet

    t = max(1, int(n * t_frac))
    blocks = SupernodeBlocks(n=n, t=t, b=b, procs=ProcSet(0, 1 << q_log))
    covered = []
    for k in range(blocks.nblocks):
        lo, hi = blocks.bounds(k)
        assert lo < hi
        # no block straddles the triangle boundary
        assert hi <= t or lo >= t
        covered.extend(range(lo, hi))
    assert covered == list(range(n))
