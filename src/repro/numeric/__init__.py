"""Numeric factorization and serial triangular solves.

* :func:`cholesky_simplicial` — reference column-by-column Cholesky
  producing a :class:`~repro.sparse.csc.LowerCSC`.
* :func:`cholesky_supernodal` — the production path: multifrontal
  supernodal Cholesky whose output stores each supernode as the dense
  n x t trapezoid that the paper's parallel solvers distribute and
  pipeline.
* :mod:`repro.numeric.trisolve` — serial forward elimination and backward
  substitution in both simplicial and supernodal forms; the supernodal
  versions are also what each processor runs on its private subtree below
  level log2(p).
* :func:`condest` — Hager-Higham 1-norm condition estimate from the
  supernodal factor, for reporting accuracy next to the residual.
"""

from repro.numeric.simplicial import cholesky_simplicial
from repro.numeric.supernodal import SupernodalFactor, cholesky_supernodal
from repro.numeric.trisolve import (
    forward_simplicial,
    backward_simplicial,
    forward_supernodal,
    backward_supernodal,
    solve_supernodal,
)
from repro.numeric.frontal import dense_cholesky, trsm_lower, trsm_lower_t
from repro.numeric.condest import condest, inverse_norm_estimate, one_norm

__all__ = [
    "cholesky_simplicial",
    "SupernodalFactor",
    "cholesky_supernodal",
    "forward_simplicial",
    "backward_simplicial",
    "forward_supernodal",
    "backward_supernodal",
    "solve_supernodal",
    "dense_cholesky",
    "trsm_lower",
    "trsm_lower_t",
    "condest",
    "inverse_norm_estimate",
    "one_norm",
]
