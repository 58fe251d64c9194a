"""Series differencing, the transform behind ARIMA's ``d`` order.

Operates on 1-D NumPy arrays; the output is one sample shorter than the
input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["difference"]


def difference(series: Sequence[float]) -> np.ndarray:
    """Return the lag-1 differenced series (length shrinks by one)."""
    arr = np.asarray(series, dtype=float)
    if arr.size <= 1:
        raise ValueError(f"series of length {arr.size} cannot be differenced at lag 1")
    return arr[1:] - arr[:-1]
