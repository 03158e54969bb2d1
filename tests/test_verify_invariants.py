"""Structural invariant checkers: catch seeded defects, pass real structures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping.subtree_subcube import ProcSet, subtree_to_subcube
from repro.sparse.generators import grid2d_laplacian
from repro.symbolic.analyze import analyze
from repro.symbolic.supernodes import SupernodePartition
from repro.verify.invariants import (
    check_assignment,
    check_block_cyclic_conformance,
    check_csc,
    check_csc_arrays,
    check_etree,
    check_postordered,
    check_supernode_partition,
    check_symbolic,
)


@pytest.fixture(scope="module")
def sym6():
    return analyze(grid2d_laplacian(6))


# ------------------------------------------------------------------ CSC rules
def test_clean_csc_passes(grid8):
    assert check_csc(grid8).ok


def test_decreasing_indptr():
    report = check_csc_arrays(3, np.array([0, 2, 1, 4]), np.array([0, 2, 1, 9]))
    assert "csc-indptr-monotone" in report.rules()


def test_index_out_of_range():
    report = check_csc_arrays(2, np.array([0, 2, 3]), np.array([0, 1, 9]))
    assert "csc-index-range" in report.rules()


def test_indptr_must_start_at_zero():
    report = check_csc_arrays(2, np.array([1, 2, 3]), np.array([0, 1]))
    assert "csc-indptr-start" in report.rules()


def test_indices_length_mismatch():
    report = check_csc_arrays(2, np.array([0, 1, 2]), np.array([0]))
    assert "csc-indices-length" in report.rules()


def test_diagonal_first_and_upper_entry():
    # Column 1 starts with row 0: above the diagonal and not diagonal-first.
    report = check_csc_arrays(2, np.array([0, 1, 2]), np.array([0, 0]))
    assert "csc-diagonal-first" in report.rules()
    assert "csc-lower-triangular" in report.rules()


def test_duplicate_and_unsorted_indices():
    dup = check_csc_arrays(3, np.array([0, 3, 3, 3]), np.array([0, 1, 1]))
    assert "csc-duplicate-index" in dup.rules()
    unsorted = check_csc_arrays(3, np.array([0, 3, 3, 3]), np.array([0, 2, 1]))
    assert "csc-sorted-indices" in unsorted.rules()


def test_findings_are_capped():
    # 100 decreasing columns must not produce 100 findings.
    indptr = np.zeros(102, dtype=np.int64)
    indptr[1::2] = 5
    report = check_csc_arrays(101, indptr, np.zeros(0, dtype=np.int64))
    assert len([f for f in report if f.rule == "csc-indptr-monotone"]) <= 11


# ---------------------------------------------------------------- etree rules
def test_valid_etree_and_postorder(sym6):
    assert check_etree(sym6.etree_parent).ok
    assert check_postordered(sym6.etree_parent).ok


def test_parent_below_child_rejected():
    report = check_etree(np.array([-1, 0, 1]))
    assert "etree-parent-order" in report.rules()


def test_valid_but_non_postordered_etree():
    # Subtrees interleave: 0 under 2, 1 under 3 — valid etree, bad postorder.
    parent = np.array([2, 3, 3, -1])
    assert check_etree(parent).ok
    report = check_postordered(parent)
    assert "etree-not-postordered" in report.rules()


# ------------------------------------------------------------ supernode rules
def test_partition_checks(sym6):
    assert check_supernode_partition(
        sym6.partition, sym6.etree_parent, n=sym6.n
    ).ok


def test_broken_supernode_chain():
    parent = np.array([1, 4, 3, 4, -1])
    partition = SupernodePartition(np.array([0, 3, 5]))
    report = check_supernode_partition(partition, parent, n=5)
    assert "supernode-chain" in report.rules()


def test_partition_coverage():
    partition = SupernodePartition(np.array([0, 2]))
    report = check_supernode_partition(partition, n=5)
    assert "supernode-coverage" in report.rules()


# ---------------------------------------------------------- mapping / layouts
def test_real_assignment_conforms(sym6):
    for p in (1, 2, 8):
        assign = subtree_to_subcube(sym6.stree, p)
        assert check_assignment(sym6.stree, assign, p).ok
        assert check_block_cyclic_conformance(sym6.stree, assign, b=4).ok


def test_assignment_size_mismatch(sym6):
    report = check_assignment(sym6.stree, [ProcSet(0, 1)], 1)
    assert "mapping-assignment-size" in report.rules()


def test_out_of_machine_and_uncontained_sets(sym6):
    stree = sym6.stree
    assign = [ProcSet(s % 3, 2) for s in range(stree.nsuper)]
    report = check_assignment(stree, assign, 2)
    assert "mapping-proc-range" in report.rules()
    assert "mapping-subcube-containment" in report.rules()


def test_whole_symbolic_battery(sym6):
    assert check_symbolic(sym6).ok
