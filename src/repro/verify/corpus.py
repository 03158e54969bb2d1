"""Seeded corpus of known-bad inputs for the verification gate.

Every case here is a miniature, deterministic reproduction of a real bug
class in this codebase's domain — a deadlocking SPMD schedule, a
non-postordered elimination tree, a malformed CSC matrix, a layout /
supernode-partition mismatch, a forbidden source construct.  The gate
(``python -m repro.verify --corpus bad``) runs each case through the
matching checker and requires that (a) at least one ERROR finding is
produced and (b) the expected rule fires — so the corpus doubles as an
end-to-end self-test that the checkers still catch what they were built
to catch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.machine.spmd import Env
from repro.mapping.subtree_subcube import ProcSet
from repro.symbolic.supernodes import SupernodePartition
from repro.verify.comm import lint_spmd
from repro.verify.findings import Report
from repro.verify.invariants import (
    check_assignment,
    check_block_cyclic_conformance,
    check_csc_arrays,
    check_postordered,
    check_supernode_partition,
)
from repro.verify.lint import lint_source
from repro.verify.schedule import certify_level_program, certify_plan


@dataclass(frozen=True)
class BadCase:
    """One known-bad input: run it, get a report that must contain errors."""

    name: str
    description: str
    expect_rules: frozenset[str]
    run: Callable[[], Report]


# ------------------------------------------------------------ SPMD programs
def _head_to_head(rank: int, env: Env) -> Generator:
    """Both ranks receive before sending: the canonical deadlock cycle."""
    other = 1 - rank
    _ = yield env.recv(other, tag=7)
    yield env.send(other, data=rank, words=1, tag=7)


def _orphan_send(rank: int, env: Env) -> Generator:
    """Rank 0 posts a message nobody ever receives."""
    if rank == 0:
        yield env.send(1, data="orphan", words=4, tag=3)
    yield env.compute(seconds=0.0)


def _tag_skew(rank: int, env: Env) -> Generator:
    """Sender and receiver disagree on the tag: blocked recv + stale message."""
    if rank == 0:
        yield env.send(1, data=42, words=1, tag=1)
    else:
        _ = yield env.recv(0, tag=2)


def _barrier_skip(rank: int, env: Env) -> Generator:
    """Rank 1 exits before the barrier rank 0 waits at."""
    if rank == 0:
        yield env.barrier()
    else:
        yield env.compute(seconds=0.0)


# ------------------------------------------------------- structural inputs
def _bad_csc() -> Report:
    # Decreasing indptr, an out-of-range row, and a column led by a
    # non-diagonal entry — three distinct malformations in one matrix.
    indptr = np.array([0, 2, 1, 4])
    indices = np.array([0, 2, 1, 9])
    return check_csc_arrays(3, indptr, indices, name="bad-csc")


def _bad_etree() -> Report:
    # Valid etree (parents above children) whose subtrees interleave:
    # node 0 hangs under 2 while node 1 hangs under 3, so the subtree of
    # 2 is {0, 2} — not a contiguous column range.
    parent = np.array([2, 3, 3, -1])
    return check_postordered(parent, name="bad-etree")


def _bad_partition() -> Report:
    # Supernode {0,1,2} claims a chain but parent[1] jumps to node 4.
    parent = np.array([1, 4, 3, 4, -1])
    partition = SupernodePartition(np.array([0, 3, 5]))
    return check_supernode_partition(partition, parent, n=5, name="bad-partition")


def _bad_mapping() -> Report:
    from repro.sparse.generators import grid2d_laplacian
    from repro.symbolic.analyze import analyze

    sym = analyze(grid2d_laplacian(4))
    stree = sym.stree
    # Child subcubes escape their parents' and the 2-processor machine:
    # every supernode pinned to a different, non-nested range.
    assign = [ProcSet(s % 3, 2) for s in range(stree.nsuper)]
    report = check_assignment(stree, assign, 2, name="bad-mapping")
    report.extend(check_block_cyclic_conformance(stree, assign, b=2, name="bad-mapping"))
    return report


# ----------------------------------------------------- execution-plan mutants
def _plan_and_tree():
    """A small pristine execution plan to mutate (grid2d(5), grain 64)."""
    from repro.exec.plan import build_plan
    from repro.sparse.generators import grid2d_laplacian
    from repro.symbolic.analyze import analyze

    sym = analyze(grid2d_laplacian(5))
    return build_plan(sym.stree, grain=64), sym.stree


def _plan_dropped_dependency() -> Report:
    # Remove one child task from a parent's dependency list: the parent's
    # forward counter under-counts, so it can start before that child has
    # published its contribution — a latent data race.
    plan, stree = _plan_and_tree()
    task_children = [list(c) for c in plan.task_children]
    tp = next(i for i in range(plan.ntasks) if task_children[i])
    task_children[tp].pop(0)
    return certify_plan(dataclasses.replace(plan, task_children=task_children), stree).report


def _plan_scatter_overlap() -> Report:
    # Duplicate one scatter index: `acc[idx] += u` with a repeated target
    # silently drops a child contribution under numpy fancy indexing.
    plan, stree = _plan_and_tree()
    steps = list(plan.steps)
    si = next(
        i for i, st in enumerate(steps)
        if any(idx.size >= 2 for idx in st.child_scatter)
    )
    scatters = list(steps[si].child_scatter)
    ci = next(i for i, idx in enumerate(scatters) if idx.size >= 2)
    idx = scatters[ci].copy()
    idx[1] = idx[0]
    scatters[ci] = idx
    steps[si] = dataclasses.replace(steps[si], child_scatter=tuple(scatters))
    return certify_plan(dataclasses.replace(plan, steps=steps), stree).report


def _plan_duplicated_columns() -> Report:
    # Two supernodes claim the same column range: those solution rows are
    # written twice and the displaced range is never written at all.
    plan, stree = _plan_and_tree()
    steps = list(plan.steps)
    steps[1] = dataclasses.replace(
        steps[1], col_lo=steps[0].col_lo, col_hi=steps[0].col_hi
    )
    return certify_plan(dataclasses.replace(plan, steps=steps), stree).report


def _plan_permuted_reduction() -> Report:
    # Reverse one node's child list (scatters permuted consistently, so
    # every contribution still lands on the right rows): numerically the
    # sums are reassociated, so results stop being bitwise reproducible.
    plan, stree = _plan_and_tree()
    steps = list(plan.steps)
    si = next(i for i, st in enumerate(steps) if len(st.children) >= 2)
    st = steps[si]
    steps[si] = dataclasses.replace(
        st,
        children=tuple(reversed(st.children)),
        child_scatter=tuple(reversed(st.child_scatter)),
    )
    return certify_plan(dataclasses.replace(plan, steps=steps), stree).report


def _program_and_tree():
    """A small pristine level program to mutate (grid2d(5))."""
    from repro.exec.plan import compile_level_program
    from repro.sparse.generators import grid2d_laplacian
    from repro.symbolic.analyze import analyze

    stree = analyze(grid2d_laplacian(5)).stree
    return compile_level_program(stree), stree


def _certify_mutated_level(pick, mutate) -> Report:
    """Certify the pristine program with one level replaced by ``mutate(level)``."""
    program, stree = _program_and_tree()
    li = next(i for i, lvl in enumerate(program.levels) if pick(lvl))
    levels = list(program.levels)
    levels[li] = mutate(levels[li])
    return certify_level_program(dataclasses.replace(program, levels=tuple(levels)), stree).report


def _program_child_at_parents_level() -> Report:
    # Lift a child onto its parent's level and compile those levels
    # faithfully: the layout is canonical, but no level barrier orders the
    # child's contribution hand-off to its parent, nor the parent's solved
    # rows back to the child.
    from repro.exec.plan import _compile_levels, _node_steps

    _, stree = _program_and_tree()
    child = next(s for s, sn in enumerate(stree.supernodes) if sn.below.size)
    node_level = stree.bottom_up_levels()
    node_level[child] = node_level[stree.parent[child]]
    return certify_level_program(_compile_levels(_node_steps(stree), node_level), stree).report


def _program_tops_swapped() -> Report:
    # Two supernodes of one level trade top offsets while every operator
    # stays put: the panel packer would lay each node's inverse and
    # rectangle over the other's tops.
    program, stree = _program_and_tree()
    lvl_of = program.node_level
    a = next(s for s in range(program.nsuper) if np.count_nonzero(lvl_of == lvl_of[s]) >= 2)
    b = next(s for s in range(a + 1, program.nsuper) if lvl_of[s] == lvl_of[a])
    top = program.node_top_off.copy()
    top[[a, b]] = top[[b, a]]
    return certify_level_program(dataclasses.replace(program, node_top_off=top), stree).report


def _summing_row(lvl, n: int) -> int | None:
    """The first accumulator row of *lvl* that sums two or more child contributions."""
    op = lvl.replay
    row_of = np.repeat(np.arange(lvl.size), np.diff(op.indptr))
    replayed = np.bincount(row_of[op.indices >= n], minlength=lvl.size)
    rows = np.flatnonzero(replayed >= 2)
    return int(rows[0]) if rows.size else None


def _certify_mutated_operator(mutate) -> Report:
    """Certify the pristine program with one replay operator mutated.

    ``mutate(ptr, idx, val, lo)`` edits copies of the ``(indptr, indices,
    data)`` of the first level with a row that sums two child
    contributions and returns the three arrays; ``lo`` is that row's
    second-to-last entry (its last two entries are both contributions).
    """
    n = _program_and_tree()[0].n

    def mutate_level(lvl):
        op = lvl.replay.copy()
        lo = int(op.indptr[_summing_row(lvl, n) + 1]) - 2
        op.indptr, op.indices, op.data = mutate(op.indptr, op.indices, op.data, lo)
        return dataclasses.replace(lvl, replay=op)

    return _certify_mutated_level(lambda lvl: _summing_row(lvl, n) is not None, mutate_level)


def _program_swapped_scatter() -> Report:
    # Two contributions bound for different accumulator rows trade places:
    # every child row still lands exactly once, but on the wrong row —
    # silently wrong values with a structurally plausible operator.
    def mutate(ptr, idx, val, lo):
        idx[[lo, -1]] = idx[[-1, lo]]  # the level's last entry is a contribution
        return ptr, idx, val

    return _certify_mutated_operator(mutate)


def _program_replay_row_swapped() -> Report:
    # Two contributions of one accumulator row trade places in its operator
    # row: every contribution still lands exactly once, on the right row,
    # but the row sums its children out of order — different rounding.
    def mutate(ptr, idx, val, lo):
        idx[[lo, lo + 1]] = idx[[lo + 1, lo]]
        return ptr, idx, val

    return _certify_mutated_operator(mutate)


def _program_replay_entry_dropped() -> Report:
    # One contribution entry is deleted from its operator row: the row's
    # extend-add silently misses a child's update — a lost update.
    def mutate(ptr, idx, val, lo):
        return ptr - (ptr > lo), np.delete(idx, lo), np.delete(val, lo)

    return _certify_mutated_operator(mutate)


def _program_replay_coefficient_two() -> Report:
    # One coefficient becomes 2.0: the structure is untouched, but one
    # child contribution is added twice over.
    def mutate(ptr, idx, val, lo):
        val[lo] = 2.0
        return ptr, idx, val

    return _certify_mutated_operator(mutate)


_BAD_SOURCE = '''\
import numpy as np
import os

def scramble(a):
    rng = np.random.default_rng()
    a.indices[0] = 3
    a.indptr.sort()
    assert a.n > 0
    return np.random.rand(a.n)
'''


def _bad_source() -> Report:
    return lint_source(_BAD_SOURCE, "corpus/bad_source.py")


def known_bad_cases() -> list[BadCase]:
    """The full seeded corpus, in gate execution order."""
    return [
        BadCase(
            "spmd-head-to-head",
            "two ranks each blocked on a receive from the other",
            frozenset({"spmd-deadlock-cycle"}),
            lambda: lint_spmd(_head_to_head, 2),
        ),
        BadCase(
            "spmd-orphan-send",
            "a message sent but never received",
            frozenset({"spmd-unmatched-send"}),
            lambda: lint_spmd(_orphan_send, 2),
        ),
        BadCase(
            "spmd-tag-skew",
            "sender and receiver disagree on the message tag",
            frozenset({"spmd-tag-mismatch", "spmd-unmatched-recv"}),
            lambda: lint_spmd(_tag_skew, 2),
        ),
        BadCase(
            "spmd-barrier-skip",
            "a rank terminates without reaching the barrier others wait at",
            frozenset({"spmd-barrier-mismatch"}),
            lambda: lint_spmd(_barrier_skip, 2),
        ),
        BadCase(
            "malformed-csc",
            "decreasing indptr, out-of-range index, non-diagonal-first column",
            frozenset({"csc-indptr-monotone"}),
            _bad_csc,
        ),
        BadCase(
            "non-postordered-etree",
            "valid elimination tree whose subtrees are not contiguous",
            frozenset({"etree-not-postordered"}),
            _bad_etree,
        ),
        BadCase(
            "broken-supernode-chain",
            "supernode partition that is not an elimination-tree chain",
            frozenset({"supernode-chain"}),
            _bad_partition,
        ),
        BadCase(
            "layout-supernode-mismatch",
            "processor sets that violate subcube containment and the machine size",
            frozenset({"mapping-subcube-containment", "mapping-proc-range"}),
            _bad_mapping,
        ),
        BadCase(
            "plan-dropped-dependency",
            "a task's dependency count misses one child — premature start race",
            frozenset({"schedule-dep-count", "schedule-race"}),
            _plan_dropped_dependency,
        ),
        BadCase(
            "plan-scatter-overlap",
            "a duplicated scatter index that drops a child contribution",
            frozenset({"schedule-scatter-overlap"}),
            _plan_scatter_overlap,
        ),
        BadCase(
            "plan-duplicated-columns",
            "two supernodes writing the same solution column range",
            frozenset({"schedule-coverage-overlap", "schedule-coverage-gap"}),
            _plan_duplicated_columns,
        ),
        BadCase(
            "plan-permuted-reduction",
            "a child reduction list out of ascending order — nondeterministic sums",
            frozenset({"schedule-reduction-order"}),
            _plan_permuted_reduction,
        ),
        BadCase(
            "program-child-at-parents-level",
            "a fused level program with a child on its parent's level",
            frozenset({"schedule-program-level"}),
            _program_child_at_parents_level,
        ),
        BadCase(
            "program-tops-swapped",
            "a fused level program whose two nodes trade top offsets in one level",
            frozenset({"schedule-program-layout"}),
            _program_tops_swapped,
        ),
        BadCase(
            "program-swapped-scatter",
            "a fused level program whose replay operator routes child rows out of place",
            frozenset({"schedule-program-scatter"}),
            _program_swapped_scatter,
        ),
        BadCase(
            "program-replay-row-swapped",
            "a replay operator row that sums its child contributions out of order",
            frozenset({"schedule-program-scatter"}),
            _program_replay_row_swapped,
        ),
        BadCase(
            "program-replay-entry-dropped",
            "a replay operator that drops one child contribution — a lost update",
            frozenset({"schedule-program-scatter"}),
            _program_replay_entry_dropped,
        ),
        BadCase(
            "program-replay-coefficient-two",
            "a replay operator that adds one child contribution twice over",
            frozenset({"schedule-program-scatter"}),
            _program_replay_coefficient_two,
        ),
        BadCase(
            "forbidden-source-constructs",
            "unseeded RNG, CSC index mutation, and a bare assert in one file",
            frozenset(
                {"lint-unseeded-random", "lint-csc-mutation", "lint-bare-assert"}
            ),
            _bad_source,
        ),
    ]
