"""Small shared utilities: argument validation, block arithmetic, flop counting.

Nothing in here knows about sparse matrices or the machine model; these are
leaf helpers used across every other subpackage.
"""

from repro.util.blocks import block_count, block_range
from repro.util.validation import (
    check_index,
    check_positive,
    check_power_of_two,
    check_square,
    is_power_of_two,
    require,
)
from repro.util.flops import (
    gemm_flops,
    trsm_flops,
    cholesky_flops,
    supernode_solve_flops,
)

__all__ = [
    "block_count",
    "block_range",
    "check_index",
    "check_positive",
    "check_power_of_two",
    "check_square",
    "is_power_of_two",
    "require",
    "gemm_flops",
    "trsm_flops",
    "cholesky_flops",
    "supernode_solve_flops",
]
