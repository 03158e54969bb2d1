"""Scalability analysis (paper Section 3).

* :mod:`repro.analysis.models` — the paper's closed-form parallel-time
  models (Equations 1-2), the dense triangular solver model, and the
  Figure 5 communication-overhead / isoefficiency table.
* :mod:`repro.analysis.isoefficiency` — empirical isoefficiency
  estimation: grow the problem with p at fixed efficiency and fit the
  growth exponent (the paper derives W ~ p^2 for both 2-D and 3-D
  problem classes, Equations 5 and 9).
"""

from repro.analysis.models import (
    Figure5Row,
    dense_trisolve_model,
    figure5_table,
    sparse_trisolve_model_2d,
    sparse_trisolve_model_3d,
)
from repro.analysis.isoefficiency import fit_growth_exponent, isoefficiency_curve

__all__ = [
    "Figure5Row",
    "dense_trisolve_model",
    "figure5_table",
    "sparse_trisolve_model_2d",
    "sparse_trisolve_model_3d",
    "fit_growth_exponent",
    "isoefficiency_curve",
]
