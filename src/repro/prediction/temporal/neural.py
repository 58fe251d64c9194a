"""NumPy multi-layer perceptron predictor (the ATM signature-series model).

The paper predicts signature series with neural networks [7] (PRACTISE).
This module implements that role from scratch: a small fully connected
network trained with Adam on features that are all available a full
prediction horizon ahead of time —

* seasonal lags: the value of the same time-of-day slot on the previous
  ``seasonal_depth`` days,
* the per-slot training mean (a learned prior of the diurnal shape),
* smooth time-of-day encodings (sin/cos).

Because no feature depends on the immediately preceding window, the model
forecasts the whole next day *directly* (no error-compounding iteration),
matching the paper's one-day resizing horizon.

This module holds the model: its config, features and forecast path.
Training — forward pass, backprop, Adam, early stopping, no frameworks —
is the batched kernel in :mod:`repro.prediction.temporal.batched`, which
fits one series as a batch of width one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.prediction.base import TemporalPredictor, validate_history, validate_horizon
from repro.prediction.temporal.seasonal import seasonal_feature_matrix

__all__ = ["MlpConfig", "NeuralNetPredictor"]


@dataclass(frozen=True)
class MlpConfig:
    """Hyper-parameters of the MLP signature predictor."""

    hidden_layers: Tuple[int, ...] = (32, 16)
    seasonal_depth: int = 3
    period: int = 96
    learning_rate: float = 1e-2
    batch_size: int = 64
    max_epochs: int = 150
    patience: int = 12
    validation_fraction: float = 0.15
    l2: float = 1e-4
    seed: int = 7

    def __post_init__(self) -> None:
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layer sizes must be positive")
        if self.seasonal_depth < 1:
            raise ValueError("seasonal_depth must be >= 1")
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if not 0.0 < self.validation_fraction < 0.5:
            raise ValueError("validation_fraction must be in (0, 0.5)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if not self.l2 >= 0.0:
            raise ValueError("l2 must be >= 0")


class _Mlp:
    """A fitted fully connected regressor: parameters and the forward pass.

    Training happens in :mod:`repro.prediction.temporal.batched`; this is
    one model's slice of the kernel's best-validation snapshot.
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> None:
        self.weights = [np.asarray(w, dtype=float).copy() for w in weights]
        self.biases = [np.asarray(b, dtype=float).copy() for b in biases]

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        activations = [x]
        out = x
        last = len(self.weights) - 1
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = out @ w + b
            if idx != last:
                out = np.maximum(out, 0.0)  # ReLU
            activations.append(out)
        return out, activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]


class NeuralNetPredictor(TemporalPredictor):
    """MLP forecaster over seasonal-lag and time-of-day features."""

    def __init__(self, config: Optional[MlpConfig] = None) -> None:
        self.config = config or MlpConfig()
        self._history = None
        self._net: Optional[_Mlp] = None

    # ------------------------------------------------------------------ features
    def _feature_rows(self, arr: np.ndarray, t_indices: np.ndarray) -> np.ndarray:
        """Feature matrix for (virtual) window indices ``t_indices``.

        Indices may point past the end of the array (forecast windows); only
        lags at ``t - k*period`` for ``k >= 1`` are read, which stay inside
        the history for a one-period horizon.
        """
        return seasonal_feature_matrix(
            arr, t_indices, self._depth, self.config.period, self._slot_mean_vec
        )

    # ------------------------------------------------------------------ training
    def fit(self, history: Sequence[float]) -> "NeuralNetPredictor":
        """Train on one history: a width-1 call of the batched kernel."""
        from repro.prediction.temporal.batched import fit_equal_length_state

        arr = validate_history(history, minimum=self.config.period + 2)
        (model,), _ = fit_equal_length_state(arr[None, :], self.config)
        self.__dict__.update(model.__dict__)
        return self

    @classmethod
    def _from_batch_state(
        cls,
        config: MlpConfig,
        history: np.ndarray,
        net: _Mlp,
        depth: int,
        slot_mean_vec: np.ndarray,
        x_mean: np.ndarray,
        x_std: np.ndarray,
        y_mean: float,
        y_std: float,
        fit_epochs: int,
    ) -> "NeuralNetPredictor":
        """Assemble a fitted predictor from the batched trainer's state.

        Used by :mod:`repro.prediction.temporal.batched`; :meth:`fit`
        adopts the attributes of the one such model it trains.
        """
        model = cls(config)
        model._net = net
        model._history = history
        model._depth = depth
        model._slot_mean_vec = slot_mean_vec
        model._x_mean = x_mean
        model._x_std = x_std
        model._y_mean = y_mean
        model._y_std = y_std
        model._fit_epochs = fit_epochs
        return model

    # ------------------------------------------------------------------ forecast
    def predict(self, horizon: int) -> np.ndarray:
        self._require_fitted()
        assert self._net is not None
        horizon = validate_horizon(horizon)
        arr = self._history
        rows = self._feature_rows(arr, arr.size + np.arange(horizon))
        x = (rows - self._x_mean) / self._x_std
        y = self._net.predict(x)[:, 0]
        return y * self._y_std + self._y_mean
