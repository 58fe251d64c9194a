"""Temporal prediction models.

The paper plugs neural networks [7] into ATM for the signature series and
cites ARIMA-style models as the classical alternative.  This package
implements that spectrum from scratch:

* :mod:`repro.prediction.temporal.naive` — last-value, moving-average,
  seasonal-naive and seasonal-mean baselines.
* :mod:`repro.prediction.temporal.ar` — autoregressive least-squares models
  with optional seasonal lags.
* :mod:`repro.prediction.temporal.arima` — ARIMA(p, d, q) via the
  Hannan-Rissanen two-stage regression.
* :mod:`repro.prediction.temporal.holtwinters` — additive Holt-Winters
  triple exponential smoothing.
* :mod:`repro.prediction.temporal.neural` — a NumPy multi-layer perceptron
  over seasonal-lag and time-of-day features (the ATM default).
* :mod:`repro.prediction.temporal.batched` — the batched training kernel
  that fits equal-length signature MLPs in vectorized slabs.
* :mod:`repro.prediction.temporal.seasonal` — the shared vectorized
  slot-mean / seasonal-lag feature pipeline.
* :mod:`repro.prediction.temporal.warm` — the one fleet trainer over that
  kernel: many boxes' fits in shared cross-box passes, each cold or
  warm-started from its previous ``(K, P)`` state, with the online
  controller's store-persisted refits as a thin layer on top.
"""

from repro.prediction.temporal.ar import AutoRegressivePredictor
from repro.prediction.temporal.batched import BatchFitState
from repro.prediction.temporal.arima import ArimaPredictor
from repro.prediction.temporal.holtwinters import HoltWintersPredictor
from repro.prediction.temporal.naive import (
    LastValuePredictor,
    MovingAveragePredictor,
    SeasonalMeanPredictor,
    SeasonalNaivePredictor,
)
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor
from repro.prediction.temporal.warm import fit_neural_fleet, fit_neural_fleet_warm

__all__ = [
    "ArimaPredictor",
    "BatchFitState",
    "AutoRegressivePredictor",
    "HoltWintersPredictor",
    "LastValuePredictor",
    "MlpConfig",
    "MovingAveragePredictor",
    "NeuralNetPredictor",
    "SeasonalMeanPredictor",
    "SeasonalNaivePredictor",
    "fit_neural_fleet",
    "fit_neural_fleet_warm",
]
