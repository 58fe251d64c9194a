"""Additive Holt-Winters (triple exponential smoothing) predictor.

A classical seasonal model: level, trend and a seasonal index per
time-of-day slot, each updated exponentially.  The smoothing parameters
are grid-searched on the in-sample one-step error of the training history.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

import numpy as np

from repro.prediction.base import TemporalPredictor, validate_history, validate_horizon

__all__ = ["HoltWintersPredictor"]

#: Candidate values of each smoothing parameter.
_GRID = (0.05, 0.2, 0.5, 0.8)
#: Per-step multiplier on the forecast trend.
_DAMP_TREND = 0.9


def _smooth(
    series: np.ndarray, period: int, alpha: float, beta: float, gamma: float
) -> Tuple[float, float, np.ndarray, np.ndarray]:
    """Run the additive Holt-Winters recursion.

    Returns the final level, trend, seasonal indices (aligned so index
    ``t % period`` applies to window ``t``), and the one-step in-sample
    fitted values.
    """
    n = series.size
    seasons = n // period
    # Initialization: first-season means.
    level = float(series[:period].mean())
    if seasons >= 2:
        trend = float((series[period : 2 * period].mean() - series[:period].mean()) / period)
    else:
        trend = 0.0
    seasonal = series[:period] - level
    seasonal = seasonal.copy()
    fitted = np.empty(n)
    for t in range(n):
        s_idx = t % period
        fitted[t] = level + trend + seasonal[s_idx]
        prev_level = level
        level = alpha * (series[t] - seasonal[s_idx]) + (1 - alpha) * (level + trend)
        trend = beta * (level - prev_level) + (1 - beta) * trend
        seasonal[s_idx] = gamma * (series[t] - level) + (1 - gamma) * seasonal[s_idx]
    return level, trend, seasonal, fitted


class HoltWintersPredictor(TemporalPredictor):
    """Additive Holt-Winters with grid-searched smoothing and a damped trend.

    ``alpha``, ``beta`` and ``gamma`` are each searched over ``_GRID``,
    minimizing one-step in-sample squared error.  The trend is damped by
    ``_DAMP_TREND`` per forecast step, which keeps long-horizon forecasts
    from running away (data-center usage has no sustained linear trends).

    Parameters
    ----------
    period:
        Seasonal period in windows (96 for daily seasonality at 15 minutes).
    """

    def __init__(self, period: int = 96) -> None:
        if period < 2:
            raise ValueError("period must be >= 2")
        self.period = period
        self._history = None

    def fit(self, history: Sequence[float]) -> "HoltWintersPredictor":
        arr = validate_history(history, minimum=self.period + 1)
        best = None
        for a, b, g in itertools.product(_GRID, _GRID, _GRID):
            level, trend, seasonal, fitted = _smooth(arr, self.period, a, b, g)
            sse = float(((arr - fitted) ** 2).sum())
            if best is None or sse < best[0]:
                best = (sse, a, b, g, level, trend, seasonal)
        assert best is not None
        _, self._alpha_, self._beta_, self._gamma_, level, trend, seasonal = best
        self._level = level
        self._trend = trend
        self._seasonal = seasonal
        self._phase = arr.size % self.period
        self._history = arr
        return self

    def predict(self, horizon: int) -> np.ndarray:
        self._require_fitted()
        horizon = validate_horizon(horizon)
        out = np.empty(horizon)
        trend = self._trend
        cumulative_trend = 0.0
        for h in range(horizon):
            cumulative_trend += trend
            trend *= _DAMP_TREND
            s_idx = (self._phase + h) % self.period
            out[h] = self._level + cumulative_trend + self._seasonal[s_idx]
        return out
