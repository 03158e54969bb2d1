"""Repo-wide verification gate: AST lint + structural invariants + SPMD lint
+ schedule certification.

``run_gate`` is what ``python -m repro.verify`` executes: it lints every
source file under ``src/repro``, checks the structural invariants of a
small deterministic workload battery end to end (ordering -> symbolic ->
mapping -> layouts), statically verifies the communication structure
of the repo's real SPMD forward/backward solver programs, and certifies
the fused level programs and the engine's plans of a battery of grids
and irregular 3-D meshes for race-freedom, exactly-once coverage and
reduction-order determinism — all without running the simulator or the
thread pool.
``run_bad_corpus`` is the negative gate: it must find errors in every
seeded known-bad input, proving the checkers still catch what they were
built to catch.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.verify.comm import lint_spmd
from repro.verify.corpus import known_bad_cases
from repro.verify.findings import Report, Severity
from repro.verify.invariants import (
    check_assignment,
    check_block_cyclic_conformance,
    check_csc,
    check_symbolic,
)
from repro.verify.lint import lint_paths


def default_source_root() -> Path:
    """The ``src/repro`` directory this installed package was loaded from."""
    return Path(__file__).resolve().parent.parent


def run_source_lint(root: Path | None = None) -> Report:
    """AST-lint every Python file of the package source tree."""
    return lint_paths([root or default_source_root()])


def run_structure_checks() -> Report:
    """Structural invariants over a small deterministic workload battery."""
    from repro.sparse.generators import fe_mesh_2d, grid2d_laplacian, grid3d_laplacian
    from repro.mapping.subtree_subcube import subtree_to_subcube
    from repro.symbolic.analyze import analyze

    report = Report()
    battery = [
        ("grid2d(6)", grid2d_laplacian(6), 0),
        ("grid3d(3)", grid3d_laplacian(3), 0),
        ("fe2d(6)", fe_mesh_2d(6, seed=3), 2),
    ]
    for name, a, relax in battery:
        report.extend(check_csc(a, name=name))
        sym = analyze(a, relax=relax)
        report.extend(check_symbolic(sym, name=name))
        for p in (1, 4):
            assign = subtree_to_subcube(sym.stree, p)
            report.extend(check_assignment(sym.stree, assign, p, name=f"{name} p={p}"))
            report.extend(
                check_block_cyclic_conformance(
                    sym.stree, assign, b=4, name=f"{name} p={p}"
                )
            )
    return report


def run_solver_comm_lint(*, p: int = 4, b: int = 4) -> Report:
    """Statically lint the repo's real SPMD solver programs.

    Builds a small factored system, derives the forward- and
    backward-substitution rank programs, and walks them through the
    communication linter.  The walk also produces the numeric solution,
    which is checked against a direct dense solve — so this section
    guards both the protocol and the values it transports.
    """
    from repro.core.spmd_backward import make_backward_program
    from repro.core.spmd_forward import make_forward_program
    from repro.mapping.subtree_subcube import subtree_to_subcube
    from repro.numeric.supernodal import cholesky_supernodal
    from repro.sparse.generators import grid2d_laplacian
    from repro.symbolic.analyze import analyze

    report = Report()
    a = grid2d_laplacian(6)
    sym = analyze(a)
    factor = cholesky_supernodal(sym)
    assign = subtree_to_subcube(sym.stree, p)
    rng = np.random.default_rng(2026)
    rhs = rng.normal(size=(a.n, 2))
    rhs_perm = sym.perm.apply_to_vector(rhs)

    program, size, y = make_forward_program(factor, assign, rhs_perm, b=b, nproc=p)
    fwd = lint_spmd(program, size)
    for f in fwd:
        report.add(f.rule, f"[spmd-forward] {f.message}", location=f.location,
                   severity=f.severity)

    program, size, x = make_backward_program(factor, assign, y.copy(), b=b, nproc=p)
    bwd = lint_spmd(program, size)
    for f in bwd:
        report.add(f.rule, f"[spmd-backward] {f.message}", location=f.location,
                   severity=f.severity)

    if fwd.ok and bwd.ok:
        dense = np.linalg.solve(a.to_dense(), rhs)
        if not np.allclose(sym.perm.unapply_to_vector(x), dense, atol=1e-8):
            report.add(
                "spmd-wrong-solution",
                "communication structure is clean but the walked SPMD solve "
                "does not match the dense solution",
                location="spmd-solvers",
            )
    return report


#: Aggregation grains of the standard schedule-certification battery,
#: spanning "one task per supernode" (0) through heavy aggregation.
SCHEDULE_BATTERY_GRAINS = (0, 256, 4096)


def run_schedule_certification() -> Report:
    """Certify the level programs and plans of the standard workload battery.

    Three small grids and an irregular 3-D mesh, plus the n = 1728
    irregular mesh of the benchmark's cold workload.  Each matrix's fused
    :class:`~repro.exec.plan.LevelProgram` is grain-invariant, so it is
    certified once against the tree
    (:func:`~repro.verify.schedule.certify_level_program`); each plan is
    certified (:func:`~repro.verify.schedule.certify_plan`) at every grain
    of ``SCHEDULE_BATTERY_GRAINS`` (the cold mesh at the default grain).
    Every determinism digest must be byte-identical across an independent
    recompile or rebuild (``schedule-cert-unstable`` otherwise): the
    static counterpart of the runtime test that solves are bitwise
    identical across runs.
    """
    from repro.exec.plan import DEFAULT_GRAIN, build_plan, compile_level_program
    from repro.sparse.generators import fe_mesh_3d, grid2d_laplacian, grid3d_laplacian
    from repro.symbolic.analyze import analyze
    from repro.verify.schedule import certify_level_program, certify_plan, plan_digest

    report = Report()
    battery = [
        ("grid2d(8)", grid2d_laplacian(8), SCHEDULE_BATTERY_GRAINS),
        ("grid2d(12)", grid2d_laplacian(12), SCHEDULE_BATTERY_GRAINS),
        ("grid3d(4)", grid3d_laplacian(4), SCHEDULE_BATTERY_GRAINS),
        ("fe3d(5)", fe_mesh_3d(5, seed=219), SCHEDULE_BATTERY_GRAINS),
        # The hsct21954 analogue (n = 1728) of the spine's cold workload.
        # Analysing it costs more than all of the above together, so the
        # grain sweep stays on the small matrices.
        ("fe3d(12)", fe_mesh_3d(12, seed=219), (DEFAULT_GRAIN,)),
    ]

    def check_stable(label: str, digest: str, again: str) -> None:
        if again != digest:
            report.add(
                "schedule-cert-unstable",
                f"{label}: determinism certificate differs across rebuilds "
                f"({sorted({digest, again})}) — the hash is not a pure "
                "function of the structure",
                location=label,
            )

    for name, a, grains in battery:
        stree = analyze(a).stree
        fused = certify_level_program(compile_level_program(stree), stree, name=name)
        report.extend(fused.report)
        again = certify_level_program(compile_level_program(stree), stree, name=name)
        check_stable(name, fused.digest, again.digest)
        for grain in grains:
            label = f"{name} grain={grain}"
            cert = certify_plan(build_plan(stree, grain=grain), stree, name=label)
            report.extend(cert.report)
            check_stable(label, cert.digest, plan_digest(build_plan(stree, grain=grain)))
    return report


def run_gate(root: Path | None = None, *, include_solvers: bool = True) -> Report:
    """The full repo gate; returns the merged report of every section."""
    report = Report()
    report.extend(run_source_lint(root))
    report.extend(run_structure_checks())
    report.extend(run_schedule_certification())
    if include_solvers:
        report.extend(run_solver_comm_lint())
    return report


def run_bad_corpus() -> Report:
    """Run every seeded known-bad case; findings are *expected* here.

    The returned report carries each case's findings (so the CLI can show
    the rule and location for every detected defect).  A case that slips
    through without errors, or without its expected rule, is itself
    reported as a ``corpus-missed`` error — the checkers regressed.
    """
    report = Report()
    for case in known_bad_cases():
        result = case.run()
        for f in result:
            report.add(
                f.rule,
                f"[{case.name}] {f.message}",
                location=f.location,
                severity=f.severity,
            )
        if result.ok:
            report.add(
                "corpus-missed",
                f"known-bad case '{case.name}' ({case.description}) produced "
                "no errors — a checker regressed",
                location=f"corpus/{case.name}",
            )
        elif not (case.expect_rules & result.rules()):
            report.add(
                "corpus-missed",
                f"known-bad case '{case.name}' fired {sorted(result.rules())} "
                f"but none of the expected rules {sorted(case.expect_rules)}",
                location=f"corpus/{case.name}",
            )
    return report


def format_gate_output(report: Report, *, header: str) -> str:
    """Render a gate report the way the CLI prints it."""
    lines = [header]
    for f in report:
        lines.append(f"  {f}")
    ne = len(report.errors())
    nw = len(report.warnings())
    if ne or nw:
        lines.append(f"{header}: {ne} error(s), {nw} warning(s)")
    else:
        lines.append(f"{header}: clean")
    return "\n".join(lines)


def severity_exit_code(report: Report) -> int:
    """0 when the report has no errors, 1 otherwise."""
    return 0 if report.ok else 1


__all__ = [
    "run_gate",
    "run_schedule_certification",
    "run_source_lint",
    "run_structure_checks",
    "run_solver_comm_lint",
    "run_bad_corpus",
    "format_gate_output",
    "severity_exit_code",
    "default_source_root",
    "Severity",
]
