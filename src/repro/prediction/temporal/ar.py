"""Autoregressive least-squares predictors.

``AutoRegressivePredictor`` fits

    y_t = c + sum_{k=1..4} phi_k y_{t-k} + psi y_{t - period}

by ordinary least squares over the training history and forecasts
iteratively.  The seasonal lag (one daily period back) gives the model a
handle on diurnal structure that plain short lags miss over a one-day
horizon.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.prediction.base import TemporalPredictor, validate_history, validate_horizon

__all__ = ["AutoRegressivePredictor"]

#: The consecutive short lags ``y_{t-1} .. y_{t-4}``.
_SHORT_LAGS = (1, 2, 3, 4)


class AutoRegressivePredictor(TemporalPredictor):
    """AR(4) with one seasonal lag, fitted by least squares.

    The lags are ``y_{t-1} .. y_{t-4}`` plus ``y_{t-period}`` (the same
    slot one period back), each kept only when the history is longer.

    Parameters
    ----------
    period:
        The seasonal period in windows (96 for daily seasonality at 15
        minutes).
    """

    def __init__(self, period: int = 96) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self._history = None
        self._coef: np.ndarray = np.array([])
        self._intercept: float = 0.0

    def fit(self, history: Sequence[float]) -> "AutoRegressivePredictor":
        arr = validate_history(history, minimum=2)
        # Lag 1 always fits: a valid history has at least two samples.
        lags = [lag for lag in sorted({*_SHORT_LAGS, self.period}) if lag < arr.size]
        max_lag = max(lags)
        n_rows = arr.size - max_lag
        design = np.column_stack(
            [np.ones(n_rows)] + [arr[max_lag - lag : arr.size - lag] for lag in lags]
        )
        target = arr[max_lag:]
        solution, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        self._history = arr
        self._fit_lags = tuple(lags)
        self._intercept = float(solution[0])
        self._coef = solution[1:]
        return self

    def predict(self, horizon: int) -> np.ndarray:
        self._require_fitted()
        horizon = validate_horizon(horizon)
        max_lag = max(self._fit_lags)
        buffer = np.concatenate([self._history[-max_lag:], np.empty(horizon)])
        for step in range(horizon):
            t = max_lag + step
            lag_values = np.array([buffer[t - lag] for lag in self._fit_lags])
            buffer[t] = self._intercept + float(self._coef @ lag_values)
        return buffer[max_lag:]
