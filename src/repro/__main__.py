"""Command-line interface: ``python -m repro <command>``.

Commands
--------
solve      solve a model problem on the simulated machine and print the
           Figure-7-style per-phase report
fig7       regenerate the Figure 7 table for one registered workload
fig8       regenerate a Figure 8 MFLOPS-vs-p panel
fig5       print the Figure 5 table and measured isoefficiency exponents
schedules  print the Figure 3/4 pipelined step schedules
report     run the full reproduction report (all experiments, compact)
workloads  list the registered paper-matrix analogues
verify     run the repo-wide static verification gate (source lint,
           structural invariants, SPMD communication lint); same as
           ``python -m repro.verify``
serve-demo run the request-coalescing solve service against a stream of
           concurrent single-RHS requests and print its ServeReport
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.exec import REAL_BACKENDS


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.solver import ParallelSparseSolver
    from repro.sparse.generators import model_problem

    a = model_problem(args.matrix, args.size, seed=args.seed)
    solver = ParallelSparseSolver(
        a, p=args.p, b=args.block, ordering=args.ordering, verify=not args.no_verify
    ).prepare()
    if args.verify_comm:
        from repro.core.spmd_backward import make_backward_program
        from repro.core.spmd_forward import make_forward_program
        from repro.verify.comm import lint_spmd

        rng = np.random.default_rng(args.seed)
        probe = solver.symbolic.perm.apply_to_vector(rng.normal(size=(a.n, 1)))
        prog, size, y = make_forward_program(
            solver.factor, solver.assign, probe, b=args.block, nproc=args.p
        )
        lint_spmd(prog, size).raise_if_errors("forward SPMD communication lint")
        prog, size, _ = make_backward_program(
            solver.factor, solver.assign, y, b=args.block, nproc=args.p
        )
        lint_spmd(prog, size).raise_if_errors("backward SPMD communication lint")
        print("SPMD communication lint: clean (forward + backward)")
    rng = np.random.default_rng(args.seed)
    b = rng.normal(size=(a.n, args.nrhs))
    _, rep = solver.solve(b, refine=args.refine, backend=args.backend)
    print(f"matrix {args.matrix}(size={args.size}): N={a.n}, nnz={a.nnz}, "
          f"factor nnz={solver.symbolic.factor_nnz}")
    if rep.backend == "sim":
        kind = "simulated"
        print(f"p={rep.p} nrhs={rep.nrhs} backend=sim")
    else:
        kind = "wall-clock"
        stree = solver.symbolic.stree
        print(f"nrhs={rep.nrhs} backend={rep.backend} supernodes={stree.nsuper} "
              f"levels={int(stree.bottom_up_levels().max()) + 1}")
        if rep.schedule_certificate:
            print(f"schedule certificate: {rep.schedule_certificate}")
    print("set-up: " + "  ".join(
        f"{stage} {seconds * 1e3:.1f} ms" for stage, seconds in solver.setup_seconds.items())
        + "  (wall-clock)")
    print(f"  factorization : {rep.factor_seconds * 1e3:10.3f} ms  "
          f"({rep.factor_mflops:8.1f} MFLOPS, simulated)")
    print(f"  redistribute  : {rep.redistribute_seconds * 1e3:10.3f} ms  "
          f"({rep.redistribution_ratio:.2f}x FBsolve, simulated)")
    print(f"  forward       : {rep.forward.seconds * 1e3:10.3f} ms  ({kind})")
    print(f"  backward      : {rep.backward.seconds * 1e3:10.3f} ms  ({kind})")
    print(f"  FBsolve       : {rep.fbsolve_seconds * 1e3:10.3f} ms  "
          f"({rep.fbsolve_mflops:8.1f} MFLOPS, {kind})")
    print(f"  residual      : {rep.residual:.2e}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments.fig7 import fig7_rows, format_fig7

    rows = fig7_rows(args.matrix, ps=tuple(args.p), nrhs_list=tuple(args.nrhs))
    print(format_fig7(rows))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments.fig8 import fig8_series, format_fig8

    series = fig8_series(args.matrix, ps=tuple(args.p), nrhs_list=tuple(args.nrhs))
    print(format_fig8(series))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.analysis.models import figure5_table
    from repro.experiments.fig5 import isoefficiency_experiment

    for r in figure5_table():
        print(f"{r.matrix_type:<10} {r.partitioning:<26} solve iso {r.solve_iso:<12} "
              f"factor iso {r.factor_iso:<12} overall {r.overall_iso}")
    print()
    for kind in ("2d", "3d"):
        solve = isoefficiency_experiment(kind=kind, system="trisolve-model")
        factor = isoefficiency_experiment(kind=kind, system="factor-model")
        print(f"measured exponents ({kind}): trisolve {solve.exponent:.2f} "
              f"(paper 2.0), factor {factor.exponent:.2f} (paper 1.5)")
    return 0


def _cmd_schedules(args: argparse.Namespace) -> int:
    from repro.core.schedules import (
        pipelined_backward_schedule,
        pipelined_forward_schedule,
        pram_forward_schedule,
    )

    nb, tb, q = args.nb, args.tb, args.q
    for title, step in (
        ("Figure 3(a): EREW-PRAM", pram_forward_schedule(nb, tb)),
        ("Figure 3(b): row priority", pipelined_forward_schedule(nb, tb, q, priority="row")),
        ("Figure 3(c): column priority", pipelined_forward_schedule(nb, tb, q, priority="column")),
        ("Figure 4: backward", pipelined_backward_schedule(nb, tb, q)),
    ):
        print(title)
        for i in range(nb):
            print("  " + " ".join(f"{int(v):3d}" if v else "  ." for v in step[i]))
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import ReportOptions, generate_report

    opts = ReportOptions(
        matrices=tuple(args.matrix),
        ps=tuple(args.p),
        nrhs_list=tuple(args.nrhs),
        include_fig8=not args.no_fig8,
    )
    print(generate_report(opts))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.__main__ import main as verify_main

    argv = ["--corpus", args.corpus]
    if args.no_solvers:
        argv.append("--no-solvers")
    if args.json:
        argv.append("--json")
    return verify_main(argv)


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    import threading

    from repro.core.solver import ParallelSparseSolver
    from repro.serve import SolveService
    from repro.sparse.generators import model_problem

    a = model_problem(args.matrix, args.size, seed=args.seed)
    solver = ParallelSparseSolver(a, p=1, ordering=args.ordering).prepare()
    rng = np.random.default_rng(args.seed)
    rhs = [rng.normal(size=a.n) for _ in range(args.requests)]

    results: list[np.ndarray | None] = [None] * args.requests
    with SolveService(
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        max_queue=max(args.requests, args.max_batch),
    ) as service:
        service.register("default", solver)

        def submitter(worker: int) -> None:
            for i in range(worker, args.requests, args.submitters):
                results[i] = service.submit(rhs[i]).result(timeout=60.0)

        threads = [
            threading.Thread(target=submitter, args=(w,))
            for w in range(args.submitters)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = service.report()

    # Coalescing must be observably transparent: spot-check a few
    # responses bitwise against standalone width-1 solves.
    for i in range(0, args.requests, max(1, args.requests // 8)):
        x_alone, _ = solver.solve(rhs[i], check=False, backend="fused")
        if not np.array_equal(results[i], x_alone):
            print(f"request {i}: coalesced response differs from standalone solve",
                  file=sys.stderr)
            return 1
    from repro.sparse.ops import relative_residual

    worst = max(
        relative_residual(a, results[i][:, None], rhs[i][:, None])
        for i in range(args.requests)
    )
    print(f"matrix {args.matrix}(size={args.size}): N={a.n}, "
          f"{args.requests} single-RHS requests from {args.submitters} threads, "
          f"max_batch={args.max_batch}, "
          f"max_wait={args.max_wait * 1e3:g} ms")
    print(report.summary())
    print(f"transparency: sampled responses bitwise-equal to standalone solves; "
          f"worst residual {worst:.2e}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.experiments.matrices import WORKLOADS

    print(f"{'name':<14} {'paper matrix':<12} {'paper N':>8} {'class':<5}")
    for w in WORKLOADS.values():
        print(f"{w.name:<14} {w.paper_name:<12} {w.paper_n:>8} {w.kind:<5}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve a model problem")
    s.add_argument("--matrix", default="grid2d",
                   choices=["grid2d", "grid3d", "fe2d", "fe3d", "random"])
    s.add_argument("--size", type=int, default=16)
    s.add_argument("--p", type=int, default=16)
    s.add_argument("--nrhs", type=int, default=1)
    s.add_argument("--block", type=int, default=8)
    s.add_argument("--refine", type=int, default=0)
    s.add_argument("--ordering", default="nested_dissection")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--backend", default="sim",
                   choices=["sim", *REAL_BACKENDS],
                   help="triangular-solve execution: 'sim' walks the SPMD "
                        "solvers through the machine simulator; 'serial' "
                        "and 'fused' run them for real and report "
                        "wall-clock ('fused' batches whole elimination-tree "
                        "levels into vectorized array ops; 'serial' is the "
                        "reference walker)")
    s.add_argument("--no-verify", action="store_true",
                   help="skip the cheap structural invariant checks in prepare()")
    s.add_argument("--verify-comm", action="store_true",
                   help="statically lint the SPMD solver communication "
                        "protocol for this instance before solving")
    s.set_defaults(func=_cmd_solve)

    s = sub.add_parser("fig7", help="Figure 7 table for a workload")
    s.add_argument("--matrix", default="bcsstk15")
    s.add_argument("--p", type=int, nargs="+", default=[1, 16, 64])
    s.add_argument("--nrhs", type=int, nargs="+", default=[1, 5, 10, 20, 30])
    s.set_defaults(func=_cmd_fig7)

    s = sub.add_parser("fig8", help="Figure 8 panel for a workload")
    s.add_argument("--matrix", default="cube35")
    s.add_argument("--p", type=int, nargs="+", default=[1, 4, 16, 64, 256])
    s.add_argument("--nrhs", type=int, nargs="+", default=[1, 5, 10, 20, 30])
    s.set_defaults(func=_cmd_fig8)

    s = sub.add_parser("fig5", help="Figure 5 + isoefficiency exponents")
    s.set_defaults(func=_cmd_fig5)

    s = sub.add_parser("schedules", help="Figure 3/4 step schedules")
    s.add_argument("--nb", type=int, default=8)
    s.add_argument("--tb", type=int, default=4)
    s.add_argument("--q", type=int, default=4)
    s.set_defaults(func=_cmd_schedules)

    s = sub.add_parser("report", help="run the full reproduction report")
    s.add_argument("--matrix", nargs="+", default=["bcsstk15", "cube35"])
    s.add_argument("--p", type=int, nargs="+", default=[1, 16, 64])
    s.add_argument("--nrhs", type=int, nargs="+", default=[1, 10, 30])
    s.add_argument("--no-fig8", action="store_true")
    s.set_defaults(func=_cmd_report)

    s = sub.add_parser("workloads", help="list registered workloads")
    s.set_defaults(func=_cmd_workloads)

    s = sub.add_parser(
        "serve-demo",
        help="demo the request-coalescing solve service under concurrent load",
    )
    s.add_argument("--matrix", default="grid3d",
                   choices=["grid2d", "grid3d", "fe2d", "fe3d", "random"])
    s.add_argument("--size", type=int, default=8)
    s.add_argument("--requests", type=int, default=64)
    s.add_argument("--submitters", type=int, default=4,
                   help="concurrent submitter threads")
    s.add_argument("--max-batch", type=int, default=16,
                   help="coalescer flush width (columns)")
    s.add_argument("--max-wait", type=float, default=2e-3,
                   help="coalescer deadline in seconds")
    s.add_argument("--ordering", default="nested_dissection")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_serve_demo)

    s = sub.add_parser("verify", help="repo-wide static verification gate")
    s.add_argument("--corpus", choices=["repo", "bad"], default="repo")
    s.add_argument("--no-solvers", action="store_true",
                   help="skip the SPMD solver communication-lint section")
    s.add_argument("--json", action="store_true",
                   help="emit findings as schema-stable JSON")
    s.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
