"""Construction-time checks shared by the configs, the graph constructors and
the energy model.

Bad numbers must fail when a config, graph or model is built, never
surface later as a NaN energy or a crash inside the annealing loop.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def finite_float(name: str, value) -> float:
    """``value`` as a float; raises ValueError unless it is a finite real number."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


def positive(name: str, value) -> float:
    """``value`` as a float; raises ValueError unless it is finite and > 0."""
    out = finite_float(name, value)
    if out <= 0:
        raise ValueError(f"{name} must be positive, got {out}")
    return out


def integer(name: str, value, minimum: int) -> int:
    """``value`` as an int; raises ValueError unless it is an integer (bool is
    not) of at least ``minimum``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def finite_array(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; raises ValueError on any NaN or infinity."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got a NaN or infinite entry")
    return arr
