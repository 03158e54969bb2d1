"""Calibrated machine presets.

``cray_t3d()`` is tuned so that the *single-processor* simulated
performance of the supernodal triangular solve and of supernodal Cholesky
land in the ranges the paper reports for the T3D (Figure 7):

* trisolve, NRHS = 1:  ~5-8 MFLOPS   (paper: 6.6 on BCSSTK15)
* trisolve, NRHS = 30: ~25-35 MFLOPS (paper: ~30)
* factorization:       ~30-40 MFLOPS (paper: 34.5)

The factorization runs almost entirely inside large BLAS-3 kernels, which
the model represents through the ``blas3_factor`` (flops executed in
many-column kernels approach ``blas3_factor * t_flop`` per flop).  The
messaging parameters are in the T3D's shmem ballpark scaled to the paper's
observed solve/communication balance.  Calibration reproduces *ratios and
shapes*, not absolute Cray seconds — see EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.machine.spec import MachineSpec


def cray_t3d() -> MachineSpec:
    """Cray-T3D-like preset (150 MHz Alpha EV4 PEs, 3-D torus, shmem)."""
    return MachineSpec(
        t_flop=9.0e-8,  # ~11 MFLOPS BLAS-1/2 ceiling; ~6.6 net after overheads
        t_s=5.0e-6,  # message startup (T3D shmem-class latency)
        t_w=1.0e-7,  # ~80 MB/s per-word (8 B) transfer
        t_h=2.0e-8,
        t_call=4.0e-6,  # per dense-kernel overhead (index computations)
        blas3_factor=0.20,  # BLAS-3 ~5x faster per flop than BLAS-1/2
        topology="hypercube",
    )
