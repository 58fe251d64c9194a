"""ARIMA(p, d, q) forecasting via the Hannan-Rissanen procedure.

The paper cites ARIMA [10] as the classical temporal model that "is not able
to capture well bursty behaviors" — we implement it both as a baseline and
as a pluggable signature-series model.  Estimation is the two-stage
Hannan-Rissanen regression, which needs nothing beyond least squares:

1. Fit a long autoregression to the (differenced) series and extract its
   residuals as innovation estimates.
2. Regress the series on ``p`` of its own lags and ``q`` lagged residuals.

Forecasting iterates the ARMA recursion with future innovations set to zero
and then integrates the differencing back.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.prediction.base import TemporalPredictor, validate_history, validate_horizon
from repro.timeseries.smoothing import difference

__all__ = ["ArimaPredictor"]


class ArimaPredictor(TemporalPredictor):
    """ARIMA(p, d, q) with Hannan-Rissanen estimation.

    Parameters
    ----------
    p, d, q:
        Autoregressive order, differencing order, moving-average order.
    long_ar_order:
        Order of the stage-1 long autoregression (defaults to a heuristic
        based on ``p + q``).
    """

    def __init__(self, p: int = 2, d: int = 1, q: int = 1, long_ar_order: int = 0) -> None:
        if p < 0 or d < 0 or q < 0:
            raise ValueError("p, d and q must be non-negative")
        if p == 0 and q == 0:
            raise ValueError("need p > 0 or q > 0")
        self.p = p
        self.d = d
        self.q = q
        self.long_ar_order = long_ar_order or max(8, 2 * (p + q))
        self._history = None

    def fit(self, history: Sequence[float]) -> "ArimaPredictor":
        arr = validate_history(history, minimum=self.d + self.p + self.q + 4)
        work = arr.copy()
        for _ in range(self.d):
            work = difference(work)

        # Stage 1: long AR for innovation estimates.
        k = min(self.long_ar_order, max(1, work.size // 3))
        resid = np.zeros_like(work)
        if work.size > k + 1:
            design = np.column_stack(
                [np.ones(work.size - k)]
                + [work[k - lag : work.size - lag] for lag in range(1, k + 1)]
            )
            target = work[k:]
            sol, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
            resid[k:] = target - design @ sol

        # Stage 2: regress on p AR lags and q MA (residual) lags.
        start = max(self.p, self.q, k)
        n_rows = work.size - start
        if n_rows < self.p + self.q + 2:
            # Degenerate short history: fall back to a drift-free mean model.
            self._mean_only = True
            self._level = float(work.mean())
            self._work = work
            self._resid = resid
            self._history = arr
            return self
        cols = [np.ones(n_rows)]
        cols += [work[start - lag : work.size - lag] for lag in range(1, self.p + 1)]
        cols += [resid[start - lag : work.size - lag] for lag in range(1, self.q + 1)]
        design = np.column_stack(cols)
        target = work[start:]
        sol, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        self._mean_only = False
        self._intercept = float(sol[0])
        self._phi = sol[1 : 1 + self.p]
        self._theta = sol[1 + self.p :]
        self._work = work
        self._resid = resid
        self._history = arr
        return self

    def predict(self, horizon: int) -> np.ndarray:
        self._require_fitted()
        horizon = validate_horizon(horizon)
        if self._mean_only:
            diffed_forecast = np.full(horizon, self._level)
        else:
            pad = max(self.p, self.q)
            values = np.concatenate([self._work[-pad:], np.empty(horizon)])
            resid = np.concatenate([self._resid[-pad:], np.zeros(horizon)])
            for step in range(horizon):
                t = pad + step
                ar_part = sum(
                    self._phi[lag - 1] * values[t - lag] for lag in range(1, self.p + 1)
                )
                ma_part = sum(
                    self._theta[lag - 1] * resid[t - lag] for lag in range(1, self.q + 1)
                )
                values[t] = self._intercept + ar_part + ma_part
            diffed_forecast = values[pad:]

        # Integrate differencing back, d times.
        forecast = diffed_forecast
        for level in range(self.d, 0, -1):
            # The last value of the (level-1)-times differenced history.
            base = self._history.copy()
            for _ in range(level - 1):
                base = difference(base)
            forecast = base[-1] + np.cumsum(forecast)
        return forecast
