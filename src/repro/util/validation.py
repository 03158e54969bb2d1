"""Argument validation helpers.

These raise ``ValueError``/``IndexError`` with uniform messages so that the
public API fails fast and loudly instead of producing garbage results deep
inside a simulation.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str, *, strict: bool = True) -> None:
    """Validate that *value* is positive (or non-negative when not strict)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_index(index: int, size: int, name: str = "index") -> None:
    """Validate ``0 <= index < size``."""
    if not 0 <= index < size:
        raise IndexError(f"{name}={index} out of range [0, {size})")


def is_power_of_two(value: int) -> bool:
    """Return True iff *value* is a positive integral power of two."""
    return value >= 1 and (value & (value - 1)) == 0


def check_power_of_two(value: int, name: str) -> None:
    """Validate that *value* is a positive power of two.

    The subtree-to-subcube mapping and hypercube collectives both require
    processor counts of the form 2**k.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")


def check_square(shape: tuple[int, ...], name: str = "matrix") -> None:
    """Validate that *shape* describes a square 2-D array."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be square, got shape {shape!r}")


def as_real_rhs(value: Any, name: str) -> np.ndarray:
    """*value* as a float64 array of at least one dimension.

    A right-hand side arrives from outside the program: complex input is a
    :class:`TypeError` (a float64 cast would drop the imaginary part behind
    a warning) and a 0-d one a :class:`ValueError`, both naming *name*,
    before anything is packed or copied.
    """
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        raise TypeError(f"{name} must be real, got complex dtype {arr.dtype}")
    if arr.ndim == 0:
        raise ValueError(f"{name} must be a vector or an (n, nrhs) block, got a 0-d value")
    return np.asarray(arr, dtype=np.float64)
