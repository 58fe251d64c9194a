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
  that fits signature MLPs in vectorized passes: one box's series, or a
  whole chunk of boxes fused into cross-box slabs.
* :mod:`repro.prediction.temporal.seasonal` — the shared vectorized
  slot-mean / seasonal-lag feature pipeline.
* :mod:`repro.prediction.temporal.warm` — warm-started refits chaining
  batched fits through persisted ``(K, P)`` parameter states (the online
  controller's refits).
"""

from repro.prediction.temporal.ar import AutoRegressivePredictor
from repro.prediction.temporal.batched import BatchFitState, fit_neural_fused
from repro.prediction.temporal.arima import ArimaPredictor
from repro.prediction.temporal.holtwinters import HoltWintersPredictor
from repro.prediction.temporal.naive import (
    LastValuePredictor,
    MovingAveragePredictor,
    SeasonalMeanPredictor,
    SeasonalNaivePredictor,
)
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor
from repro.prediction.temporal.warm import fit_neural_fleet_warm

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
    "fit_neural_fleet_warm",
    "fit_neural_fused",
]
