"""Series differencing, the transform behind ARIMA's ``d`` order.

Operates on 1-D NumPy arrays; the output is ``lag`` samples shorter than
the input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["difference"]


def difference(series: Sequence[float], lag: int = 1) -> np.ndarray:
    """Return the lag-``lag`` differenced series (length shrinks by ``lag``)."""
    arr = np.asarray(series, dtype=float)
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if arr.size <= lag:
        raise ValueError(f"series of length {arr.size} cannot be differenced at lag {lag}")
    return arr[lag:] - arr[:-lag]
