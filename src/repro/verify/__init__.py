"""Static verification layer: communication linting, structural invariant
checking, and repo-specific source lint.

The paper's pipelined block-cyclic solvers and subtree-to-subcube mapping
are correct only under delicate ordering invariants — every send needs a
matching receive, the elimination tree must be postordered, block-cyclic
layouts must conform to the supernode partition.  This package checks all
of them *before* anything executes:

* :mod:`repro.verify.comm` — SPMD communication linter
  (:func:`lint_spmd`); finds guaranteed deadlock cycles, unmatched
  sends/receives, tag mismatches and receive races without running the
  timing simulator.
* :mod:`repro.verify.invariants` — structural checkers for CSC matrices,
  elimination trees / postorder, supernode partitions, subtree-to-subcube
  maps and block-cyclic layouts.
* :mod:`repro.verify.schedule` — the schedule certifier for the real
  shared-memory execution layer (:mod:`repro.exec`): the fused level
  program judged against the supernodal tree (layout, operators, and
  the level order of every hand-off the tree names), and the engine's
  plans, whose ordering obligations (child contribution → parent,
  solved ancestor rows → descendant) are checked against the
  happens-before of the dependency-counted task tree
  (:func:`certify_plan`); each earns a canonical determinism
  certificate.
* :mod:`repro.verify.lint` — AST lint with repo-specific rules
  (unseeded randomness, CSC index-array mutation, bare asserts,
  unused imports).
* :mod:`repro.verify.gate` — the repo-wide analysis gate behind
  ``python -m repro.verify``.

Checkers report :class:`Finding` records through :class:`Report`
(fail-fast callers use :meth:`Report.raise_if_errors`, which raises
:class:`VerificationError` carrying the full report).
"""

from repro.verify.comm import lint_spmd
from repro.verify.findings import (
    Finding,
    Report,
    Severity,
    VerificationError,
    merge,
)
from repro.verify.gate import (
    run_bad_corpus,
    run_gate,
    run_schedule_certification,
    run_solver_comm_lint,
    run_source_lint,
    run_structure_checks,
)
from repro.verify.schedule import ScheduleCertificate, certify_plan, plan_digest
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
from repro.verify.lint import lint_file, lint_paths, lint_source

__all__ = [
    "Finding",
    "Report",
    "ScheduleCertificate",
    "Severity",
    "VerificationError",
    "certify_plan",
    "merge",
    "plan_digest",
    "run_schedule_certification",
    "lint_spmd",
    "check_assignment",
    "check_block_cyclic_conformance",
    "check_csc",
    "check_csc_arrays",
    "check_etree",
    "check_postordered",
    "check_supernode_partition",
    "check_symbolic",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_gate",
    "run_bad_corpus",
    "run_source_lint",
    "run_structure_checks",
    "run_solver_comm_lint",
]
