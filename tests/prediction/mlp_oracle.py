"""Per-model reference trainer for the MLP signature predictor.

The definitional training loop of :class:`NeuralNetPredictor`: one model
at a time, 2-D matrix ops, an explicit Adam step per parameter tensor and
a best-validation snapshot restored after early stopping.  Production code
trains every model through the batched kernel
(:mod:`repro.prediction.temporal.batched`), whose claim is *bit-identical*
results to this loop; the equivalence suites fit both ways and compare.

Not collected as a test module (no ``test_`` prefix).  Importable from the
repository root as ``tests.prediction.mlp_oracle``; the temporal-batch
benchmark times it as its serial side.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.prediction.base import validate_history
from repro.prediction.temporal.neural import NeuralNetPredictor
from repro.prediction.temporal.seasonal import phase_aligned_slot_means

__all__ = ["SerialMlp", "SerialNeuralNetPredictor", "serial_fits"]


class SerialMlp:
    """Bare-bones fully connected regressor with Adam and MSE loss."""

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator) -> None:
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He initialization for ReLU
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._adam_m = [np.zeros_like(w) for w in self.weights] + [
            np.zeros_like(b) for b in self.biases
        ]
        self._adam_v = [np.zeros_like(w) for w in self.weights] + [
            np.zeros_like(b) for b in self.biases
        ]
        self._adam_t = 0

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

    def train_batch(self, x: np.ndarray, y: np.ndarray, lr: float, l2: float) -> float:
        out, acts = self.forward(x)
        n = x.shape[0]
        delta = 2.0 * (out - y) / n  # dMSE/dout
        grads_w: List[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: List[np.ndarray] = [np.empty(0)] * len(self.biases)
        for idx in range(len(self.weights) - 1, -1, -1):
            grads_w[idx] = acts[idx].T @ delta + l2 * self.weights[idx]
            grads_b[idx] = delta.sum(axis=0)
            if idx > 0:
                delta = delta @ self.weights[idx].T
                delta *= acts[idx] > 0  # ReLU gradient
        self._adam_step(grads_w + grads_b, lr)
        return float(((out - y) ** 2).mean())

    def _adam_step(self, grads: List[np.ndarray], lr: float) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam_t += 1
        params = self.weights + self.biases
        for k, (param, grad) in enumerate(zip(params, grads)):
            self._adam_m[k] = beta1 * self._adam_m[k] + (1 - beta1) * grad
            self._adam_v[k] = beta2 * self._adam_v[k] + (1 - beta2) * grad * grad
            m_hat = self._adam_m[k] / (1 - beta1**self._adam_t)
            v_hat = self._adam_v[k] / (1 - beta2**self._adam_t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def snapshot(self) -> List[np.ndarray]:
        return [w.copy() for w in self.weights] + [b.copy() for b in self.biases]

    def restore(self, state: List[np.ndarray]) -> None:
        n = len(self.weights)
        for k in range(n):
            self.weights[k] = state[k].copy()
            self.biases[k] = state[n + k].copy()


class SerialNeuralNetPredictor(NeuralNetPredictor):
    """:class:`NeuralNetPredictor` fitted by the per-model reference loop.

    Shares the production feature rows and forecast path; only ``fit``
    differs, so a forecast mismatch against the kernel is a training
    mismatch.
    """

    def fit(
        self,
        history: Sequence[float],
        init: Optional[np.ndarray] = None,
        patience: Optional[int] = None,
    ) -> "SerialNeuralNetPredictor":
        """Fit ``history``; ``init`` warm-starts from a flat parameter row.

        ``init`` uses the batched kernel's row layout (every layer's
        weights, then every layer's biases) and replaces the He init after
        it is drawn; its own validation loss seeds the early-stopping
        baseline.  ``patience`` overrides ``config.patience``.
        """
        cfg = self.config
        arr = validate_history(history, minimum=cfg.period + 2)
        depth = min(cfg.seasonal_depth, max(1, arr.size // cfg.period - 1))
        self._depth = depth
        self._slot_mean_vec = phase_aligned_slot_means(arr, cfg.period)

        start = depth * cfg.period
        if start >= arr.size:
            start = cfg.period
        t_indices = np.arange(start, arr.size)
        features = self._feature_rows(arr, t_indices)
        targets = arr[t_indices][:, None]

        self._x_mean = features.mean(axis=0)
        self._x_std = features.std(axis=0)
        self._x_std[self._x_std < 1e-9] = 1.0
        self._y_mean = float(targets.mean())
        self._y_std = float(targets.std()) or 1.0
        x = (features - self._x_mean) / self._x_std
        y = (targets - self._y_mean) / self._y_std

        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(x.shape[0])
        n_val = max(1, int(cfg.validation_fraction * x.shape[0]))
        val_idx, train_idx = order[:n_val], order[n_val:]
        if train_idx.size == 0:
            train_idx = val_idx
        x_train, y_train = x[train_idx], y[train_idx]
        x_val, y_val = x[val_idx], y[val_idx]

        sizes = [x.shape[1], *cfg.hidden_layers, 1]
        net = SerialMlp(sizes, rng)
        best_val = np.inf
        if init is not None:
            offset = 0
            for param in net.weights + net.biases:
                param[...] = init[offset : offset + param.size].reshape(param.shape)
                offset += param.size
            best_val = float(((net.predict(x_val) - y_val) ** 2).mean())
        best_state = net.snapshot()
        stale = 0
        epochs_run = 0
        for _ in range(cfg.max_epochs):
            perm = rng.permutation(x_train.shape[0])
            for lo in range(0, perm.size, cfg.batch_size):
                batch = perm[lo : lo + cfg.batch_size]
                net.train_batch(x_train[batch], y_train[batch], cfg.learning_rate, cfg.l2)
            val_loss = float(((net.predict(x_val) - y_val) ** 2).mean())
            epochs_run += 1
            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_state = net.snapshot()
                stale = 0
            else:
                stale += 1
                if stale >= (cfg.patience if patience is None else patience):
                    break
        net.restore(best_state)
        self._net = net
        self._history = arr
        self._fit_epochs = epochs_run
        return self


def serial_fits(histories, cfg) -> List[SerialNeuralNetPredictor]:
    """One reference fit per history, in input order."""
    return [SerialNeuralNetPredictor(cfg).fit(h) for h in histories]
