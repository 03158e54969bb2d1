"""End-to-end parallel sparse SPD solver.

:class:`ParallelSparseSolver` strings the phases together exactly as the
paper's experimental code does:

1. fill-reducing ordering + symbolic factorization (``repro.symbolic``);
2. numeric supernodal Cholesky (``repro.numeric``), with a modeled
   factorization time for the requested processor count;
3. 2-D -> 1-D redistribution of the factor (``repro.mapping``), with its
   simulated cost;
4. simulated-parallel forward elimination and backward substitution
   (``repro.core.forward`` / ``repro.core.backward``).

``solve`` returns the solution in the *original* ordering plus a
:class:`SolveReport` containing every quantity Figure 7 tabulates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.verify.findings import Report

from repro.core.backward import parallel_backward
from repro.core.factor_model import parallel_factor_time, serial_factor_time
from repro.core.forward import parallel_forward
from repro.exec import REAL_BACKENDS
from repro.machine.events import SimResult
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.mapping.redistribution import total_redistribution_time
from repro.mapping.subtree_subcube import ProcSet, subtree_to_subcube
from repro.numeric.supernodal import SupernodalFactor, cholesky_supernodal
from repro.sparse.csc import SymCSC
from repro.symbolic.analyze import SymbolicFactor, analyze
from repro.util.validation import as_real_rhs, check_power_of_two, require


@dataclass
class TrisolveRun:
    """Timing and verification data for one triangular-solve phase."""

    seconds: float
    flops: int
    sim: SimResult | None = None

    @property
    def mflops(self) -> float:
        return self.flops / self.seconds / 1e6 if self.seconds > 0 else float("inf")


@dataclass
class SolveReport:
    """Everything the paper's Figure 7 reports for one (matrix, p, NRHS).

    ``backend`` records where the triangular-solve seconds came from:
    ``"sim"`` (simulated machine makespans, the default), or measured
    wall-clock: ``"serial"`` (the reference walker) / ``"fused"`` (the
    level program of :mod:`repro.exec`).

    ``schedule_certificate`` (``fused`` backend with ``verify=True``) is
    the determinism certificate of the statically certified level
    program: a canonical hash over the schedule's reduction orders and
    task topology.  It is a pure function of the symbolic structure —
    two reports with equal certificates ran schedule-equivalent (hence
    bitwise-identical) solves without either run having to be repeated.
    """

    n: int
    p: int
    nrhs: int
    factor_seconds: float
    factor_flops: float
    redistribute_seconds: float
    forward: TrisolveRun
    backward: TrisolveRun
    residual: float | None = None
    backend: str = "sim"
    schedule_certificate: str | None = None

    @property
    def fbsolve_seconds(self) -> float:
        """Total forward+backward time (the paper's "FBsolve time")."""
        return self.forward.seconds + self.backward.seconds

    @property
    def fbsolve_mflops(self) -> float:
        total = self.forward.flops + self.backward.flops
        return total / self.fbsolve_seconds / 1e6 if self.fbsolve_seconds > 0 else float("inf")

    @property
    def factor_mflops(self) -> float:
        return self.factor_flops / self.factor_seconds / 1e6 if self.factor_seconds else 0.0

    @property
    def redistribution_ratio(self) -> float:
        """Redistribution time over FBsolve time (paper: <= 0.9, avg ~0.5)."""
        return self.redistribute_seconds / self.fbsolve_seconds if self.fbsolve_seconds else 0.0


#: Default supernode amalgamation.  With the diagonal solves applied as
#: one sparse product per level, a warm fused solve pays mostly a fixed
#: cost per level, and amalgamating at 16 artificial zeros per column cuts
#: the levels 95 -> 14 on grid3d(16) and 30 -> 15 on grid2d(96) for 2-5 %
#: more factor entries.  Warm fused solves against relax 0, same process,
#: 10 alternating rounds: 0.26x on grid3d(16) x 1 and 0.74x on
#: grid2d(96) x 16, 10/10 each (see CHANGES.md).
DEFAULT_RELAX = 16


@dataclass
class ParallelSparseSolver:
    """Direct solver for sparse SPD systems on the simulated machine.

    Parameters
    ----------
    a :
        The SPD coefficient matrix.
    p :
        Number of (simulated) processors; a power of two.
    spec :
        Machine parameters; defaults to the Cray-T3D-like preset.
    b :
        Block size of the block-cyclic supernode partitioning.
    ordering :
        Fill-reducing ordering method (see :func:`repro.ordering.order`).
    variant :
        "column" or "row" priority for the pipelined forward solver.
    relax :
        Most artificial zeros per column that supernode amalgamation may
        add (0: fundamental supernodes; see
        :func:`repro.symbolic.find_supernodes`).  The default is
        :data:`DEFAULT_RELAX`; the paper's simulated figures pin 0.
    verify :
        When true (the default), :meth:`prepare` runs the cheap static
        invariant checkers of :mod:`repro.verify` over the input matrix,
        the symbolic factorization, and the subtree-to-subcube mapping,
        raising :class:`repro.verify.VerificationError` before any
        simulated run can consume a bad structure.
    """

    a: SymCSC
    p: int = 1
    spec: MachineSpec = field(default_factory=cray_t3d)
    b: int = 8
    ordering: str = "nested_dissection"
    variant: str = "column"
    relax: int = DEFAULT_RELAX
    verify: bool = True

    # Filled by prepare():
    symbolic: SymbolicFactor | None = field(default=None, init=False)
    factor: SupernodalFactor | None = field(default=None, init=False)
    assign: list[ProcSet] | None = field(default=None, init=False)
    setup_seconds: dict[str, float] | None = field(default=None, init=False, repr=False)
    _factor_seconds: float | None = field(default=None, init=False, repr=False)
    _redistribute_seconds: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        check_power_of_two(self.p, "p")

    # ------------------------------------------------------------------
    def prepare(self) -> "ParallelSparseSolver":
        """Run ordering, symbolic analysis, numeric factorization, mapping.

        With ``verify=True`` every structure produced here is passed
        through the static invariant checkers before the solver accepts
        it (CSC well-formedness, etree postorder, supernode chains,
        subcube containment, block-cyclic layout conformance).

        The wall-clock seconds of the four stages are left in
        :attr:`setup_seconds` (``analyze`` includes the ordering).
        """
        t0 = time.perf_counter()
        self.symbolic = analyze(self.a, method=self.ordering, relax=self.relax)
        t1 = time.perf_counter()
        self.factor = cholesky_supernodal(self.symbolic)
        t2 = time.perf_counter()
        self.assign = subtree_to_subcube(self.symbolic.stree, self.p)
        t3 = time.perf_counter()
        if self.verify:
            self.verify_prepared().raise_if_errors(
                "solver structural verification failed"
            )
        self.setup_seconds = {
            "analyze": t1 - t0,
            "cholesky": t2 - t1,
            "mapping": t3 - t2,
            "verify": time.perf_counter() - t3,
        }
        return self

    def verify_prepared(self) -> "Report":
        """Run the static invariant checkers over the prepared structures.

        Returns the :class:`repro.verify.Report`; callers that want
        fail-fast semantics use ``.raise_if_errors()`` (which
        :meth:`prepare` does when ``verify=True``).
        """
        from repro.verify.invariants import (
            check_assignment,
            check_block_cyclic_conformance,
            check_csc,
            check_symbolic,
        )

        sym, _, assign = self._require_prepared()
        report = check_csc(self.a, name="A")
        report.extend(check_symbolic(sym, name="symbolic"))
        report.extend(check_assignment(sym.stree, assign, self.p, name="assign"))
        report.extend(
            check_block_cyclic_conformance(sym.stree, assign, self.b, name="layout")
        )
        return report

    def _require_prepared(self) -> tuple[SymbolicFactor, SupernodalFactor, list[ProcSet]]:
        require(
            self.symbolic is not None and self.factor is not None and self.assign is not None,
            "call prepare() before solve()",
        )
        return self.symbolic, self.factor, self.assign  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def factorization_seconds(self) -> float:
        """Factorization time on p processors (serial sum at p=1).

        At p > 1 this is the closed-form critical-path model of
        :mod:`repro.core.factor_model` (the event-simulated task graph,
        :func:`repro.core.parallel_factor.simulated_factor_time`, is its
        higher-fidelity check).  The result is cached per solver instance.
        """
        if self._factor_seconds is None:
            sym, _, assign = self._require_prepared()
            if self.p == 1:
                self._factor_seconds = serial_factor_time(self.spec, sym.stree)
            else:
                self._factor_seconds = parallel_factor_time(
                    self.spec, sym.stree, assign, b=self.b
                )
        return self._factor_seconds

    def redistribution_seconds(self) -> float:
        """Simulated 2-D -> 1-D factor redistribution time (cached per instance)."""
        if self._redistribute_seconds is None:
            sym, _, assign = self._require_prepared()
            self._redistribute_seconds = total_redistribution_time(self.spec, sym.stree, assign)
        return self._redistribute_seconds

    # ------------------------------------------------------------------
    def solve(
        self,
        bvec: np.ndarray,
        *,
        check: bool = True,
        refine: int = 0,
        backend: str = "sim",
    ) -> tuple[np.ndarray, SolveReport]:
        """Solve ``A x = b`` and report per-phase times.

        *bvec* may be a vector or an ``(n, nrhs)`` block.  The returned
        solution is in the original (pre-permutation) ordering.
        ``refine`` adds that many steps of iterative refinement
        (``x += A^{-1}(b - A x)``); each step re-runs both triangular
        solves, and their time is accumulated in the report.

        ``backend`` selects how the triangular solves run and what their
        reported seconds mean:

        * ``"sim"`` (default) — the paper's SPMD solvers walked through
          the machine simulator; seconds are simulated makespans.
        * ``"serial"`` — the serial supernodal solvers of
          :mod:`repro.numeric.trisolve`, the reference every other
          execution is compared against; seconds are measured wall-clock.
        * ``"fused"`` — the vectorized level program of
          :mod:`repro.exec.fused`: whole elimination-tree levels batched
          into a handful of array ops, no per-node Python dispatch, no
          array allocations in the sweeps; seconds are measured wall-clock.  Bitwise
          identical to ``serial``.  With ``verify=True`` (the solver
          default) the compiled program is first put through the static
          schedule certifier
          (:func:`repro.verify.schedule.certify_level_program`) —
          race-freedom, exactly-once coverage, canonical reduction order —
          and the resulting determinism certificate is recorded on the
          report (``schedule_certificate``); certification is memoized
          per structure, so only the first solve pays for the proof.

        Factorization and redistribution seconds always come from the
        machine model — only the repo's real hot path (the solves) is
        measured for now.
        """
        sym, factor, assign = self._require_prepared()
        require(backend == "sim" or backend in REAL_BACKENDS,
                f"backend must be 'sim' or one of {REAL_BACKENDS}, "
                f"got {backend!r}")
        bvec = as_real_rhs(bvec, "bvec")
        squeeze = bvec.ndim == 1
        bmat = bvec[:, None] if squeeze else bvec
        require(bmat.shape[0] == self.a.n, "rhs size mismatch")
        require(bmat.shape[1] > 0, "rhs must have at least one column")
        require(refine >= 0, "refine must be >= 0")
        nrhs = bmat.shape[1]

        x, fwd_seconds, bwd_seconds, fwd_sim, bwd_sim = self._one_solve(bmat, backend)
        for _ in range(refine):
            from repro.sparse.ops import matvec

            residual = bmat - matvec(self.a, x)
            dx, fs, bs, _, _ = self._one_solve(residual, backend)
            x = x + dx
            fwd_seconds += fs
            bwd_seconds += bs

        solve_flops = sym.stree.solve_flops(nrhs) * (1 + refine)
        report = SolveReport(
            n=self.a.n,
            p=self.p,
            nrhs=nrhs,
            factor_seconds=self.factorization_seconds(),
            factor_flops=sym.stree.factor_flops(),
            redistribute_seconds=self.redistribution_seconds(),
            forward=TrisolveRun(seconds=fwd_seconds, flops=solve_flops, sim=fwd_sim),
            backward=TrisolveRun(seconds=bwd_seconds, flops=solve_flops, sim=bwd_sim),
            backend=backend,
        )
        if self.verify and backend == "fused":
            from repro.exec import fused_certificate_for

            report.schedule_certificate = fused_certificate_for(sym.stree).digest
        if check:
            from repro.sparse.ops import relative_residual

            report.residual = relative_residual(self.a, x, bmat)
        return (x[:, 0] if squeeze else x), report

    # ------------------------------------------------------------------
    def _one_solve(
        self, bmat: np.ndarray, backend: str
    ) -> tuple[np.ndarray, float, float, SimResult | None, SimResult | None]:
        """One forward+backward pass; returns x (original order) and times."""
        sym, factor, assign = self._require_prepared()
        b_perm = sym.perm.apply_to_vector(bmat)
        if backend == "sim":
            y, fwd_sim = parallel_forward(
                factor, assign, self.spec, b_perm, b=self.b, variant=self.variant,
                nproc=self.p,
            )
            x_perm, bwd_sim = parallel_backward(
                factor, assign, self.spec, y, b=self.b, nproc=self.p
            )
            x = sym.perm.unapply_to_vector(x_perm)
            return x, fwd_sim.makespan, bwd_sim.makespan, fwd_sim, bwd_sim

        from time import perf_counter

        if backend == "serial":
            from repro.numeric.trisolve import backward_supernodal, forward_supernodal

            t0 = perf_counter()
            y = forward_supernodal(factor, b_perm)
            t1 = perf_counter()
            x_perm = backward_supernodal(factor, y)
            t2 = perf_counter()
        else:  # fused
            from repro.exec import backward_fused, forward_fused
            from repro.exec.cache import program_for

            # Cached per structure; with verify=True the compiled level
            # program is certified against the tree before first use.
            program = program_for(sym.stree, certify=self.verify)
            t0 = perf_counter()
            y = forward_fused(factor, b_perm, program=program)
            t1 = perf_counter()
            x_perm = backward_fused(factor, y, program=program)
            t2 = perf_counter()
        x = sym.perm.unapply_to_vector(x_perm)
        return x, t1 - t0, t2 - t1, None, None
