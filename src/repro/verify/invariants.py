"""Structural invariant checkers for the solver's core data structures.

The pipelined solvers (paper Figures 3-4) and the subtree-to-subcube
mapping are correct only under ordering invariants that used to be
checked implicitly (or not at all) deep inside a simulation run.  Each
checker here validates one of them *statically*, in near-linear time,
and reports every violation with the rule id and location instead of
raising on the first:

* :func:`check_csc_arrays` / :func:`check_csc` — CSC well-formedness for
  :class:`~repro.sparse.csc.SymCSC` / :class:`~repro.sparse.csc.LowerCSC`
  (monotone ``indptr``, in-range sorted row indices, no duplicates,
  diagonal-first columns, lower-triangularity).
* :func:`check_etree` — elimination-tree validity: ``parent[j] > j`` or
  root, which also implies acyclicity.
* :func:`check_postordered` — subtree contiguity: every node's
  descendants occupy exactly ``[j - size(j) + 1, j]``, the property the
  supernode detector and subtree-to-subcube mapping both require.
* :func:`check_supernode_partition` — partition boundaries cover the
  columns and every supernode is a parent chain in the etree.
* :func:`check_assignment` — subtree-to-subcube conformance: one
  :class:`~repro.mapping.subtree_subcube.ProcSet` per supernode, inside
  the machine, each child's set contained in its parent's.
* :func:`check_block_cyclic_conformance` — the block-cyclic trapezoid
  layout of every shared supernode tiles the storage rows exactly,
  aligned to the triangle boundary, with every block owner a member of
  the supernode's processor set.

All functions return a :class:`~repro.verify.findings.Report`; use
``report.raise_if_errors()`` for fail-fast call sites.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import SupernodeBlocks
from repro.mapping.subtree_subcube import ProcSet
from repro.sparse.csc import LowerCSC, SymCSC
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.postorder import subtree_sizes
from repro.symbolic.stree import SupernodalTree
from repro.symbolic.supernodes import SupernodePartition
from repro.util.segments import run_starts, segment_ids
from repro.verify.findings import Report

_MAX_PER_RULE = 10  # cap repeated findings so huge bad inputs stay readable


class _Capped:
    """Append findings to a report, capping repeats of the same rule."""

    def __init__(self, report: Report, name: str):
        self.report = report
        self.name = name
        self.counts: dict[str, int] = {}

    def add(self, rule: str, message: str, *, location: str | None = None) -> None:
        c = self.counts.get(rule, 0)
        self.counts[rule] = c + 1
        if c < _MAX_PER_RULE:
            self.report.add(rule, message, location=location or self.name)
        elif c == _MAX_PER_RULE:
            self.report.add(rule, "further violations suppressed", location=self.name)


# ----------------------------------------------------------------- CSC shape
def check_csc_arrays(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None = None,
    *,
    name: str = "csc",
) -> Report:
    """Validate raw CSC arrays describing a lower-triangular pattern.

    Operates on bare arrays (not a constructed matrix object) so that
    inputs the :class:`~repro.sparse.csc.SymCSC` constructor would reject
    outright can still be fully diagnosed.
    """
    report = Report()
    out = _Capped(report, name)
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    if indptr.ndim != 1 or indptr.shape[0] != n + 1:
        out.add("csc-indptr-shape", f"indptr must have length n+1={n + 1}, got shape {indptr.shape}")
        return report
    if int(indptr[0]) != 0:
        out.add("csc-indptr-start", f"indptr[0] must be 0, got {int(indptr[0])}")
    steps = np.diff(indptr)
    for j in np.nonzero(steps < 0)[0]:
        out.add(
            "csc-indptr-monotone",
            f"indptr decreases at column {int(j)}: "
            f"{int(indptr[j])} -> {int(indptr[j + 1])}",
            location=f"{name} column {int(j)}",
        )
    nnz = int(indptr[-1])
    if indices.shape[0] != nnz:
        out.add(
            "csc-indices-length",
            f"indices length {indices.shape[0]} != indptr[-1] = {nnz}",
        )
        return report
    if data is not None and np.asarray(data).shape[0] != nnz:
        out.add("csc-data-length", f"data length {np.asarray(data).shape[0]} != nnz {nnz}")
    if nnz and (int(indices.min()) < 0 or int(indices.max()) >= n):
        bad = np.nonzero((indices < 0) | (indices >= n))[0]
        for k in bad[:_MAX_PER_RULE]:
            out.add(
                "csc-index-range",
                f"row index {int(indices[k])} out of range [0, {n}) at position {int(k)}",
            )
    if not report.ok:
        return report  # structure too broken for per-column checks
    if not nnz:
        return report
    # Per-column facts as vectors; only the offending columns are visited.
    cols = np.flatnonzero(steps > 0)
    starts = indptr[cols]
    lead = np.full(n, -1, dtype=np.int64)
    lead[cols] = indices[starts]
    lowest = np.zeros(n, dtype=np.int64)
    lowest[cols] = np.minimum.reduceat(indices, starts)
    this = np.arange(n)
    diag_led = lead == this
    off_diag = (steps > 0) & ~diag_led
    above = (steps > 0) & (lowest < this)
    # Neighbouring entries of one column, the leading diagonal excluded.
    column = segment_ids(indptr)
    gap = np.diff(indices)
    pair = column[1:] == column[:-1]
    pair[starts[diag_led[cols] & (starts < nnz - 1)]] = False
    repeated = np.zeros(n, dtype=bool)
    repeated[column[:-1][pair & (gap == 0)]] = True
    descending = np.zeros(n, dtype=bool)
    descending[column[:-1][pair & (gap < 0)]] = True
    for j in np.flatnonzero(off_diag | above | repeated | descending).tolist():
        where = f"{name} column {j}"
        if off_diag[j]:
            out.add(
                "csc-diagonal-first",
                f"column {j} must start with its diagonal, got row {int(lead[j])}",
                location=where,
            )
        if above[j]:
            out.add(
                "csc-lower-triangular",
                f"column {j} contains row {int(lowest[j])} above the diagonal",
                location=where,
            )
        if repeated[j]:
            out.add("csc-duplicate-index", f"column {j} has duplicate row indices", location=where)
        elif descending[j]:
            out.add("csc-sorted-indices", f"column {j} row indices are not sorted", location=where)
    return report


def check_csc(a: SymCSC | LowerCSC, *, name: str | None = None) -> Report:
    """Well-formedness of a constructed CSC matrix (both classes share the
    lower-triangular, diagonal-first column convention)."""
    label = name or type(a).__name__
    return check_csc_arrays(a.n, a.indptr, a.indices, a.data, name=label)


# ------------------------------------------------------------------- etrees
def check_etree(parent: np.ndarray, *, name: str = "etree") -> Report:
    """Elimination-tree validity: every parent strictly above its child."""
    report = Report()
    out = _Capped(report, name)
    parent = np.asarray(parent)
    n = parent.shape[0]
    ordered = (parent > np.arange(n)) & (parent < n)
    for j in np.flatnonzero((parent != NO_PARENT) & ~ordered).tolist():
        out.add(
            "etree-parent-order",
            f"parent[{j}] = {int(parent[j])} must be -1 or in ({j}, {n})",
            location=f"{name} node {j}",
        )
    return report


def check_postordered(parent: np.ndarray, *, name: str = "etree") -> Report:
    """Subtree contiguity: node ``j``'s descendants are exactly
    ``[j - size(j) + 1, j - 1]``.

    This is the postorder property that makes supernode columns and
    subtree-to-subcube subtrees contiguous column ranges.  A valid but
    non-postordered etree (e.g. ``parent = [2, 3, 3, -1]``) fails here
    while passing :func:`check_etree`.
    """
    report = Report()
    out = _Capped(report, name)
    parent = np.asarray(parent)
    structural = check_etree(parent, name=name)
    if not structural.ok:
        report.extend(structural)
        return report
    n = parent.shape[0]
    first = np.arange(n, dtype=np.int64) - subtree_sizes(parent) + 1  # candidate first descendant
    # Each node's children in the order of their candidate intervals; the
    # intervals must tile [first[j], j - 1] left to right.
    kids = np.flatnonzero(parent != NO_PARENT)
    kids = kids[np.lexsort((first[kids], parent[kids]))]
    of = parent[kids]
    head = run_starts(of)
    cursor = np.where(head, first[of], np.roll(kids, 1) + 1)
    misplaced = np.flatnonzero(first[kids] != cursor)
    misplaced = misplaced[run_starts(of[misplaced])]
    findings = {
        int(of[k]): (
            f"subtree of node {int(of[k])} is not contiguous: child {int(kids[k])} covers "
            f"[{int(first[kids[k]])}, {int(kids[k])}] but columns [{int(cursor[k])}, ...] were "
            "expected next"
        )
        for k in misplaced
    }
    last = np.flatnonzero(np.roll(head, -1))
    for k in last[kids[last] + 1 != of[last]]:
        j = int(of[k])
        findings.setdefault(
            j,
            f"children of node {j} cover [{int(first[j])}, {int(kids[k])}] but its "
            f"subtree interval is [{int(first[j])}, {j - 1}]",
        )
    for j in sorted(findings):
        out.add("etree-not-postordered", findings[j], location=f"{name} node {j}")
    return report


# --------------------------------------------------------------- supernodes
def check_supernode_partition(
    partition: SupernodePartition,
    parent: np.ndarray | None = None,
    *,
    n: int | None = None,
    name: str = "supernodes",
) -> Report:
    """Partition conformance: boundaries cover ``[0, n]`` and, when the
    etree is supplied, every supernode is a ``parent[j] == j + 1`` chain."""
    report = Report()
    out = _Capped(report, name)
    b = np.asarray(partition.boundaries)
    if n is not None and int(b[-1]) != n:
        out.add(
            "supernode-coverage",
            f"partition covers columns [0, {int(b[-1])}) but the matrix has {n}",
        )
    if parent is not None:
        parent = np.asarray(parent)
        if n is None and parent.shape[0] != int(b[-1]):
            out.add(
                "supernode-coverage",
                f"partition covers {int(b[-1])} columns but etree has {parent.shape[0]} nodes",
            )
        m = min(int(b[-1]), parent.shape[0])
        owner = partition.column_to_supernode()[:m]
        j = np.arange(max(m - 1, 0))
        broken = np.flatnonzero((owner[:-1] == owner[1:]) & (parent[j] != j + 1))
        broken = broken[run_starts(owner[broken])]
        for j in broken.tolist():
            s = int(owner[j])
            lo, hi = partition.columns(s)
            out.add(
                "supernode-chain",
                f"supernode {s} spans columns [{lo}, {min(hi, m)}) but "
                f"parent[{j}] = {int(parent[j])} != {j + 1}: columns "
                "are not an elimination-tree chain",
                location=f"{name} supernode {s}",
            )
    return report


# ----------------------------------------------------- subcube maps, layouts
def check_assignment(
    stree: SupernodalTree,
    assign: list[ProcSet],
    p: int,
    *,
    name: str = "assign",
) -> Report:
    """Subtree-to-subcube conformance of a supernode -> ProcSet map."""
    report = Report()
    out = _Capped(report, name)
    if len(assign) != stree.nsuper:
        out.add(
            "mapping-assignment-size",
            f"assignment has {len(assign)} entries for {stree.nsuper} supernodes",
        )
        return report
    for s, ps in enumerate(assign):
        where = f"{name} supernode {s}"
        if ps.start < 0 or ps.stop > p:
            out.add(
                "mapping-proc-range",
                f"supernode {s} assigned ranks [{ps.start}, {ps.stop}) outside "
                f"the {p}-processor machine",
                location=where,
            )
        parent = int(stree.parent[s])
        if parent != NO_PARENT:
            pp = assign[parent]
            if not (pp.start <= ps.start and ps.stop <= pp.stop):
                out.add(
                    "mapping-subcube-containment",
                    f"supernode {s} runs on ranks [{ps.start}, {ps.stop}) but "
                    f"its parent {parent} owns [{pp.start}, {pp.stop}): "
                    "subtree-to-subcube requires child subcubes inside the "
                    "parent's",
                    location=where,
                )
    return report


def check_block_cyclic_conformance(
    stree: SupernodalTree,
    assign: list[ProcSet],
    b: int,
    *,
    name: str = "layout",
) -> Report:
    """Block-cyclic layout conformance for every shared supernode.

    Rebuilds each shared supernode's :class:`SupernodeBlocks` and checks
    that the row blocks tile ``[0, t)`` then ``[t, n)`` exactly (triangle
    aligned, no gaps or overlaps, no block wider than *b*) and that every
    block owner is a member of the supernode's processor set.
    """
    report = Report()
    out = _Capped(report, name)
    if len(assign) != stree.nsuper:
        out.add(
            "mapping-assignment-size",
            f"assignment has {len(assign)} entries for {stree.nsuper} supernodes",
        )
        return report
    for s, sn in enumerate(stree.supernodes):
        ps = assign[s]
        if ps.size <= 1:
            continue
        where = f"{name} supernode {s}"
        try:
            blocks = SupernodeBlocks(n=sn.n, t=sn.t, b=b, procs=ps)
            nblocks = blocks.nblocks
        except ValueError as exc:
            out.add("layout-invalid", f"supernode {s}: {exc}", location=where)
            continue
        cursor = 0
        for k in range(nblocks):
            lo, hi = blocks.bounds(k)
            expected_start = sn.t if k == blocks.n_tri_blocks else cursor
            if lo != expected_start or hi <= lo or hi - lo > b:
                out.add(
                    "layout-block-tiling",
                    f"supernode {s} block {k} covers [{lo}, {hi}) but "
                    f"[{expected_start}, ...] was expected (b={b}, t={sn.t}, n={sn.n})",
                    location=where,
                )
                break
            if blocks.is_triangle(k) and hi > sn.t:
                out.add(
                    "layout-triangle-alignment",
                    f"supernode {s} triangle block {k} crosses the triangle "
                    f"boundary t={sn.t}",
                    location=where,
                )
                break
            owner = blocks.owner(k)
            if owner not in ps:
                out.add(
                    "layout-owner-range",
                    f"supernode {s} block {k} owned by rank {owner} outside "
                    f"processor set [{ps.start}, {ps.stop})",
                    location=where,
                )
            cursor = hi
        else:
            if cursor != sn.n:
                out.add(
                    "layout-block-tiling",
                    f"supernode {s} blocks cover [0, {cursor}) of {sn.n} storage rows",
                    location=where,
                )
    return report


# ------------------------------------------------------------ whole pipeline
def check_symbolic(sym, *, name: str = "symbolic") -> Report:
    """All structural invariants of one symbolic factorization, in order."""
    report = Report()
    report.extend(check_csc(sym.a_perm, name=f"{name}.a_perm"))
    report.extend(check_etree(sym.etree_parent, name=f"{name}.etree"))
    report.extend(check_postordered(sym.etree_parent, name=f"{name}.etree"))
    report.extend(
        check_csc_arrays(
            sym.n, sym.l_indptr, sym.l_indices, name=f"{name}.L-pattern"
        )
    )
    report.extend(
        check_supernode_partition(
            sym.partition, sym.etree_parent, n=sym.n, name=f"{name}.partition"
        )
    )
    return report
