"""Persistence for symbolic analyses and numeric factors.

Factorization is the expensive phase; production solvers let users factor
once and reuse the factor across runs (exactly the paper's multiple-RHS
scenario, extended across process lifetimes).  Everything is stored in a
single ``.npz`` (no pickle — the format is plain arrays, so files are
portable and safe to load).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.numeric.supernodal import SupernodalFactor
from repro.symbolic.stree import Supernode, SupernodalTree
from repro.util.validation import require

_FORMAT_VERSION = 1


def save_factor(factor: SupernodalFactor, path: str | Path) -> None:
    """Write a supernodal factor (structure + values) to ``path`` (.npz)."""
    stree = factor.stree
    arrays: dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION]),
        "nsuper": np.array([stree.nsuper]),
        "parent": stree.parent.astype(np.int64),
        "col_lo": np.array([sn.col_lo for sn in stree.supernodes], dtype=np.int64),
        "col_hi": np.array([sn.col_hi for sn in stree.supernodes], dtype=np.int64),
        "rows_ptr": np.cumsum(
            [0] + [sn.rows.shape[0] for sn in stree.supernodes]
        ).astype(np.int64),
        "rows": np.concatenate([sn.rows for sn in stree.supernodes])
        if stree.nsuper
        else np.empty(0, dtype=np.int64),
        "block_ptr": np.cumsum([0] + [b.size for b in factor.blocks]).astype(np.int64),
        "block_data": np.concatenate([b.ravel() for b in factor.blocks])
        if factor.blocks
        else np.empty(0),
    }
    np.savez_compressed(Path(path), **arrays)


def load_factor(path: str | Path) -> SupernodalFactor:
    """Read a factor written by :func:`save_factor`."""
    with np.load(Path(path)) as data:
        require(int(data["version"][0]) == _FORMAT_VERSION, "unknown factor format version")
        nsuper = int(data["nsuper"][0])
        col_lo, col_hi = data["col_lo"], data["col_hi"]
        rows_ptr, rows = data["rows_ptr"], data["rows"]
        block_ptr, block_data = data["block_ptr"], data["block_data"]
        # The tree validates the structure before any value is shaped by it.
        stree = SupernodalTree(
            supernodes=[
                Supernode(
                    index=s, col_lo=int(col_lo[s]), col_hi=int(col_hi[s]),
                    rows=rows[rows_ptr[s] : rows_ptr[s + 1]],
                )
                for s in range(nsuper)
            ],
            parent=data["parent"],
        )
        blocks = [
            block_data[block_ptr[s] : block_ptr[s + 1]].reshape(sn.n, sn.t).copy()
            for s, sn in enumerate(stree.supernodes)
        ]
        return SupernodalFactor(stree=stree, blocks=blocks)
