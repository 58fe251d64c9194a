"""ARIMA(2, 1, 1) forecasting via the Hannan-Rissanen procedure.

The paper cites ARIMA [10] as the classical temporal model that "is not able
to capture well bursty behaviors" — we implement it both as a baseline and
as a pluggable signature-series model.  Estimation is the two-stage
Hannan-Rissanen regression, which needs nothing beyond least squares:

1. Fit a long autoregression to the differenced series and extract its
   residuals as innovation estimates.
2. Regress the series on ``p = 2`` of its own lags and ``q = 1`` lagged
   residual.

Forecasting iterates the ARMA recursion with future innovations set to zero
and then integrates the differencing back.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.prediction.base import TemporalPredictor, validate_history, validate_horizon
from repro.timeseries.smoothing import difference

__all__ = ["ArimaPredictor"]

#: Autoregressive and moving-average orders; the series is differenced once.
_P, _Q = 2, 1
#: Order of the stage-1 long autoregression, ``max(8, 2 * (p + q))``.
_LONG_AR_ORDER = 8


class ArimaPredictor(TemporalPredictor):
    """ARIMA(2, 1, 1) with Hannan-Rissanen estimation."""

    def fit(self, history: Sequence[float]) -> "ArimaPredictor":
        arr = validate_history(history, minimum=1 + _P + _Q + 4)
        work = difference(arr)

        # Stage 1: long AR for innovation estimates.  The minimum history
        # of 8 samples keeps ``work.size >= 3k`` and at least five stage-2
        # rows, so neither regression is ever short.
        k = min(_LONG_AR_ORDER, max(1, work.size // 3))
        resid = np.zeros_like(work)
        design = np.column_stack(
            [np.ones(work.size - k)]
            + [work[k - lag : work.size - lag] for lag in range(1, k + 1)]
        )
        target = work[k:]
        sol, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        resid[k:] = target - design @ sol

        # Stage 2: regress on p AR lags and q MA (residual) lags.
        start = max(_P, _Q, k)
        n_rows = work.size - start
        cols = [np.ones(n_rows)]
        cols += [work[start - lag : work.size - lag] for lag in range(1, _P + 1)]
        cols += [resid[start - lag : work.size - lag] for lag in range(1, _Q + 1)]
        design = np.column_stack(cols)
        target = work[start:]
        sol, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        self._intercept = float(sol[0])
        self._phi = sol[1 : 1 + _P]
        self._theta = sol[1 + _P :]
        self._work = work
        self._resid = resid
        self._history = arr
        return self

    def predict(self, horizon: int) -> np.ndarray:
        self._require_fitted()
        horizon = validate_horizon(horizon)
        pad = max(_P, _Q)
        values = np.concatenate([self._work[-pad:], np.empty(horizon)])
        resid = np.concatenate([self._resid[-pad:], np.zeros(horizon)])
        for step in range(horizon):
            t = pad + step
            ar_part = sum(self._phi[lag - 1] * values[t - lag] for lag in range(1, _P + 1))
            ma_part = sum(self._theta[lag - 1] * resid[t - lag] for lag in range(1, _Q + 1))
            values[t] = self._intercept + ar_part + ma_part
        # Integrate the differencing back.
        return self._history[-1] + np.cumsum(values[pad:])
