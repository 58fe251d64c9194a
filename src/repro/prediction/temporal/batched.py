"""Batched MLP training kernel: many signature models in one pass.

A box's ATM fit trains one small MLP per signature series — many identical
tiny models over equally shaped data.  Fitting them one by one spends most
of the wall-clock in Python dispatch (hundreds of numpy calls per model per
epoch on 64×9 matrices).  This module stacks the K models along a leading
axis and runs forward, backprop and Adam as 3-D ``np.matmul`` tensor ops:
one Python-level training loop for the whole batch instead of K.

:func:`fit_equal_length_state` is the one MLP kernel.
``NeuralNetPredictor.fit`` is its width-1 call, and the fleet trainer
(:func:`repro.prediction.temporal.warm.fit_neural_fleet`) is its only
multi-row caller: it groups many boxes' series by history length and
trains each group, cold or warm-started, as slabs of at most
:data:`FUSED_SLAB_MODELS` models.  The kernel's reference is the
per-model serial loop kept as a test oracle
(``tests/prediction/mlp_oracle.py``), and equivalence to it is exact, not
approximate:

* Every series uses the same ``MlpConfig.seed``, so the K serial RNG
  streams are identical; drawing the validation split, weight init and
  per-epoch shuffles once from a single generator reproduces each stream.
* Batched ``np.matmul``/reductions apply the same BLAS/pairwise kernels
  per stacked slice as the 2-D serial ops, so every float op sees the same
  operands in the same order (pinned by
  ``tests/prediction/test_batched_temporal.py``, which asserts
  bit-identical forecasts against the oracle).
* Early stopping is per-model via a convergence mask: a model whose
  validation loss stalls for ``patience`` epochs leaves the stack exactly
  when its serial twin would break out of the loop, and the batch compacts
  to the survivors — total training work equals the serial path's, with
  the Python dispatch overhead divided by the stack width.  Each model's
  result is its best-validation snapshot, matching
  ``net.restore(best_state)`` serially.
* A shared Adam step counter is valid because a *live* model's step count
  always equals the global one; converged models take no further steps.

The training step allocates nothing: each slab's :class:`_BatchedMlp`
owns one workspace that every op writes into with ``out=``, the
per-epoch shuffle gathers into once-allocated buffers, and early
stopping compacts in place (survivors move to the front rows; the kernel
rebinds ``[:K]`` views).  A wide step's temporaries would run to
megabytes, which glibc hands back to the OS on free and faults in again
on the next step, at about the cost of the arithmetic itself.  The
workspace holds one buffer per layer activation and nothing per
backprop delta: backprop writes the output delta into the output
activation and each earlier layer's delta into the activation it has
just consumed, and Adam's step reuses the gradient buffer, which every
step rewrites.  The expressions and their order are unchanged, so none
of the equivalence claims above depends on the workspace.

The kernel composes with the process-level ``FleetExecutor``
multiplicatively: processes fan out over chunks of boxes, the batch axis
vectorizes across a chunk's series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor, _Mlp
from repro.prediction.temporal.seasonal import (
    phase_aligned_slot_means_batch,
    seasonal_feature_matrix_batch,
)

__all__ = [
    "FUSED_SLAB_MODELS",
    "BatchFitState",
    "fit_equal_length_state",
    "models_from_params",
    "n_params",
]

#: Slab width of the kernel: how many models train in one ``(K, P)``
#: tensor pass.  Wider slabs amortize more Python dispatch but grow the
#: per-step working set.  On the allocation-free kernel the
#: width barely matters: fitting the 265 paper-shaped signature histories
#: (480 windows) of one atmbench fleet-neural repetition took a median
#: 2.93 / 2.66 / 2.82 / 2.85 CPU-s at 16 / 32 / 64 / 128 models (2-core
#: x86 host, 8 interleaved rounds, spread 2.1–3.4 s), all within the
#: host's noise.  A kernel step costs about 22 µs fixed plus ~17 µs per
#: model (K=1: 39 µs, K=64: 1,139 µs; one BLAS thread), so past a few
#: dozen models the fixed part is noise.  32 is the width that keeps the
#: online controller's fused refits (3-box chunks on atmbench
#: online-regime-shift) from raising peak RSS: +0.5–1.2 MB over the
#: one-box controller at 32, +2.1 MB (+4.2%) at 64, for 1.12 against
#: 1.15 CPU-s.  Slabs are bit-identical to any other split because every
#: model's RNG stream and row-local math are independent of its slab
#: neighbours.
FUSED_SLAB_MODELS = 32

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


_Layout = List[Tuple[int, int, int, int]]  # (w_off, b_off, in, out) per layer


def _param_layout(sizes: Sequence[int]) -> Tuple[_Layout, int, int]:
    """Flat-row layout of an MLP with layer widths ``sizes``.

    Weights of all layers first, biases after: the L2 gradient term
    touches exactly ``row[:w_total]`` as one contiguous slice.  Returns
    ``(layers, w_total, n_params)``.
    """
    w_total = sum(i * o for i, o in zip(sizes[:-1], sizes[1:]))
    layers: _Layout = []
    w_off, b_off = 0, w_total
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        layers.append((w_off, b_off, fan_in, fan_out))
        w_off += fan_in * fan_out
        b_off += fan_out
    return layers, w_total, b_off


def _extract_model(layers: _Layout, row: np.ndarray) -> _Mlp:
    """The fitted network of one model's flat parameter row."""
    weights = [
        row[w_off : w_off + fan_in * fan_out].reshape(fan_in, fan_out)
        for w_off, _, fan_in, fan_out in layers
    ]
    biases = [row[b_off : b_off + fan_out] for _, b_off, _, fan_out in layers]
    return _Mlp(weights, biases)


class _BatchedMlp:
    """K stacked MLPs trained in lock-step with 3-D tensor ops.

    All parameters of one model live in a single contiguous row of a
    ``(K, P)`` buffer; per-layer weight/bias tensors are strided *views*
    into it.  The layout makes the Adam update a handful of whole-buffer
    elementwise ops instead of one op set per layer — elementwise math is
    layout-independent, so every parameter still sees the exact serial
    float sequence.

    A training step allocates nothing.  One workspace, sized once per slab
    for the initial width and ``rows`` rows (the largest minibatch or
    validation set it serves), holds every layer's activations and ReLU
    masks plus the L2/Adam scratch, and every op writes into it with
    ``out=``; backprop deltas reuse the activation buffers and Adam's
    step the gradient buffer.  Activation buffers are flat and a ``(K, n, width)``
    view is their contiguous prefix, so each op sees the memory layout a
    fresh allocation would have had.  :meth:`compact` moves the survivors
    to the front rows of the parameter and Adam buffers in place and
    rebinds ``[:K]`` views; the workspace is scratch and just serves
    narrower views afterwards.
    """

    def __init__(
        self, n_models: int, sizes: Sequence[int], rng: np.random.Generator, rows: int
    ):
        self.n_models = n_models
        self._layers, self._w_total, self._n_params = _param_layout(sizes)
        self._widths = list(sizes[1:])

        shape = (n_models, self._n_params)
        self.params, self.grads = np.empty(shape), np.empty(shape)
        self._adam_m, self._adam_v = np.zeros(shape), np.zeros(shape)
        self._adam_t = 0
        self._scratch = np.empty(shape)
        self._act_buf = [np.empty(n_models * rows * w) for w in self._widths]
        self._mask_buf = [
            np.empty(n_models * rows * w, dtype=bool) for w in self._widths[:-1]
        ]
        self._build_views()

        for w, b in zip(self.weights, self.biases):
            fan_in = w.shape[1]
            scale = np.sqrt(2.0 / fan_in)  # He init, drawn once: seeds are shared
            w[:] = rng.normal(0.0, scale, size=w.shape[1:])[None]
            b[:] = 0.0

    def _build_views(self) -> None:
        """Per-layer weight/bias tensors as strided views into the buffers."""
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        self._grads_w: List[np.ndarray] = []
        self._grads_b: List[np.ndarray] = []
        for w_off, b_off, fan_in, fan_out in self._layers:
            w_end, b_end = w_off + fan_in * fan_out, b_off + fan_out
            self.weights.append(self.params[:, w_off:w_end].reshape(-1, fan_in, fan_out))
            self.biases.append(self.params[:, b_off:b_end].reshape(-1, 1, fan_out))
            self._grads_w.append(self.grads[:, w_off:w_end].reshape(-1, fan_in, fan_out))
            self._grads_b.append(self.grads[:, b_off:b_end].reshape(-1, 1, fan_out))
        self._row_views: dict = {}

    def _views(self, rows: int):
        """``(acts, masks)`` workspace views for ``rows``-row inputs."""
        views = self._row_views.get(rows)
        if views is None:
            k = self.n_models

            def prefix(bufs):
                return [
                    buf[: k * rows * w].reshape(k, rows, w)
                    for buf, w in zip(bufs, self._widths)
                ]

            views = prefix(self._act_buf), prefix(self._mask_buf)
            self._row_views[rows] = views
        return views

    def forward(self, x: np.ndarray, with_masks: bool = False) -> np.ndarray:
        """Forward pass over ``x`` of shape (K, n, d) into the workspace.

        Returns the output activation view, valid until the next call.
        With ``with_masks`` the ReLU masks are kept for backprop (instead
        of re-deriving ``acts > 0``; post-ReLU positivity equals pre-ReLU
        positivity, so the bits match the serial path).  All elementwise
        steps run in place on the matmul result, in the serial op order.
        """
        acts, masks = self._views(x.shape[1])
        out = x
        last = len(self.weights) - 1
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = np.matmul(out, w, out=acts[idx])
            out += b
            if idx != last:
                np.maximum(out, 0.0, out=out)  # ReLU
                if with_masks:
                    np.greater(out, 0.0, out=masks[idx])
        return out

    def train_batch(self, x: np.ndarray, y: np.ndarray, lr: float, l2: float) -> None:
        """One minibatch step for all K models (same rows for each model)."""
        rows = x.shape[1]
        out = self.forward(x, with_masks=True)
        acts, masks = self._views(rows)
        # Every delta lands in an activation buffer that is spent: the
        # output delta in the output, each earlier delta in the layer
        # input whose weight gradient has just been taken.
        delta = np.subtract(out, y, out=out)  # dMSE/dout: 2 * (out - y) / n
        delta *= 2.0
        delta /= rows
        for idx in range(len(self.weights) - 1, -1, -1):
            inputs = acts[idx - 1] if idx > 0 else x
            np.matmul(inputs.transpose(0, 2, 1), delta, out=self._grads_w[idx])
            # np.add.reduce == ndarray.sum minus the Python method wrapper.
            np.add.reduce(delta, axis=1, keepdims=True, out=self._grads_b[idx])
            if idx > 0:
                w_t = self.weights[idx].transpose(0, 2, 1)
                if w_t.shape[1] == 1:
                    # Inner dimension 1: the matmul is an outer product, one
                    # rounded multiply per element either way.
                    delta = np.multiply(delta, w_t, out=inputs)
                else:
                    delta = np.matmul(delta, w_t, out=inputs)
                delta *= masks[idx - 1]  # ReLU gradient
        # L2 term for every weight (not bias) in one slice op; elementwise,
        # so the per-parameter float sequence matches the serial
        # ``acts.T @ delta + l2 * w``.
        w_total = self._w_total
        l2_term = np.multiply(
            self.params[:, :w_total], l2, out=self._scratch[:, :w_total]
        )
        self.grads[:, :w_total] += l2_term
        self._adam_step(lr)

    def _adam_step(self, lr: float) -> None:
        """Adam over the whole flat parameter buffer in one op sequence.

        Mirrors the serial per-parameter update exactly (same expressions,
        in the same order, into the preallocated scratch rows); operating
        on the concatenated buffer only changes how the elementwise work
        is chunked, not any individual float op.  The step is built in the
        gradient buffer, which the moments have consumed by then.
        """
        self._adam_t += 1
        c1 = 1 - _ADAM_BETA1**self._adam_t
        c2 = 1 - _ADAM_BETA2**self._adam_t
        grad, m, v = self.grads, self._adam_m, self._adam_v
        scratch = self._scratch
        m *= _ADAM_BETA1  # m = beta1 * m + (1 - beta1) * grad
        m += np.multiply(grad, 1 - _ADAM_BETA1, out=scratch)
        v *= _ADAM_BETA2  # v = beta2 * v + ((1 - beta2) * grad) * grad
        grad_v = np.multiply(grad, 1 - _ADAM_BETA2, out=scratch)
        grad_v *= grad
        v += grad_v
        step = np.divide(m, c1, out=grad)  # lr * m_hat / (sqrt(v_hat) + eps)
        step *= lr
        denom = np.divide(v, c2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        self.params -= step

    def snapshot(self) -> np.ndarray:
        return self.params.copy()

    def copy_models_into(
        self, dest: np.ndarray, dest_rows: np.ndarray, stack_rows: np.ndarray
    ) -> None:
        """Copy current params of stack rows into ``dest`` at ``dest_rows``."""
        dest[dest_rows] = self.params[stack_rows]

    def compact(self, keep: np.ndarray) -> None:
        """Drop converged models from the stack (boolean ``keep`` mask).

        Per-slice tensor ops are independent, so shrinking the leading axis
        leaves the surviving models' float streams untouched; the dropped
        models' best snapshots were taken before they froze.  Gradients and
        the workspace are rewritten by every step, so only parameters and
        Adam moments move.
        """
        self.n_models = int(np.count_nonzero(keep))
        self.params = _keep_rows(self.params, keep)
        self._adam_m = _keep_rows(self._adam_m, keep)
        self._adam_v = _keep_rows(self._adam_v, keep)
        self.grads = self.grads[: self.n_models]
        self._scratch = self._scratch[: self.n_models]
        self._build_views()


def _keep_rows(array: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the rows selected by ``keep`` to the front of ``array``, in place.

    Returns the ``[:K]`` prefix view holding them, in their original order.
    """
    kept = int(np.count_nonzero(keep))
    array[:kept] = array[keep]
    return array[:kept]


@dataclass
class BatchFitState:
    """Best-validation outcome of one equal-length batched fit.

    ``params`` is the flat ``(K, P)`` best-snapshot buffer in history input
    order, ``best_val`` the per-model best validation loss reached and
    ``epochs`` the per-model epoch count of that fit.  The buffer is a valid
    warm initializer for a refit of the same K-model topology (see
    :mod:`repro.prediction.temporal.warm`), and together with the training
    matrix it fully determines the fitted predictors — serving it back
    through :func:`models_from_params` reproduces them without training.
    """

    params: np.ndarray
    best_val: np.ndarray
    epochs: np.ndarray


class _Prepared(NamedTuple):
    """Deterministic pre-training state shared by fit and resume paths."""

    depth: int
    slot_means: np.ndarray
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    sizes: List[int]
    rng: np.random.Generator


def _prepare_batch(matrix: np.ndarray, cfg: MlpConfig) -> _Prepared:
    """Features, normalization stats and the split — everything before SGD.

    Pure function of ``(matrix, cfg)``: the rng is seeded from the config
    and has consumed exactly one permutation draw (the validation split) on
    return, so continuing fits and store-served resumes agree bit for bit.
    """
    _, size = matrix.shape
    period = cfg.period
    depth = _feature_depth(size, cfg)
    slot_means = phase_aligned_slot_means_batch(matrix, period)

    start = depth * period
    if start >= size:
        start = period
    t_indices = np.arange(start, size)
    features = seasonal_feature_matrix_batch(matrix, t_indices, depth, period, slot_means)
    # C-contiguous (K, n): fancy indexing would lay the rows out column-major.
    target_rows = np.ascontiguousarray(matrix[:, start:])
    targets = target_rows[:, :, None]

    x_mean = features.mean(axis=1)  # (K, d)
    x_std = features.std(axis=1)
    x_std[x_std < 1e-9] = 1.0
    # Scalar y stats per model, bit-equal to the serial ``targets.mean()``
    # and ``targets.std()``: numpy reduces each row of a C-contiguous
    # matrix's inner axis with the same pairwise sum as that row alone, at
    # any K and in any slab.  A column-major matrix would sum across rows
    # instead, so the layout matters.
    y_mean = _row_means(target_rows)
    y_std = _row_stds(target_rows, y_mean)
    y_std[y_std == 0.0] = 1.0
    x = (features - x_mean[:, None, :]) / x_std[:, None, :]
    y = (targets - y_mean[:, None, None]) / y_std[:, None, None]

    # One generator stands in for all K per-series generators: every serial
    # fit seeds identically, so the streams coincide draw for draw.
    rng = np.random.default_rng(cfg.seed)
    n_rows = x.shape[1]
    order = rng.permutation(n_rows)
    n_val = max(1, int(cfg.validation_fraction * n_rows))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        train_idx = val_idx
    sizes = [x.shape[2], *cfg.hidden_layers, 1]
    return _Prepared(
        depth=depth,
        slot_means=slot_means,
        x_mean=x_mean,
        x_std=x_std,
        y_mean=y_mean,
        y_std=y_std,
        x_train=x[:, train_idx],
        y_train=y[:, train_idx],
        x_val=x[:, val_idx],
        y_val=y[:, val_idx],
        sizes=sizes,
        rng=rng,
    )


def _feature_depth(size: int, cfg: MlpConfig) -> int:
    """Seasonal lag depth of a ``size``-window history."""
    return min(cfg.seasonal_depth, max(1, size // cfg.period - 1))


def n_params(size: int, cfg: MlpConfig) -> int:
    """Flat parameter count ``P`` of one model fit on ``size``-window histories."""
    depth = _feature_depth(size, cfg)
    return _param_layout([depth + 3, *cfg.hidden_layers, 1])[2]


def _row_means(rows: np.ndarray) -> np.ndarray:
    """``[float(r.mean()) for r in rows]``, bit for bit, of a C-contiguous ``(K, n)`` matrix.

    See the y_mean note in :func:`_prepare_batch`; pinned by
    ``tests/prediction/test_batched_temporal.py``.
    """
    return np.add.reduce(rows, axis=1) / rows.shape[1]


def _row_stds(rows: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``[float(r.std()) for r in rows]``, bit for bit, given :func:`_row_means`."""
    centered = rows - means[:, None]
    np.square(centered, out=centered)
    return np.sqrt(_row_means(centered))


def _flat_val_losses(net: _BatchedMlp, x_val: np.ndarray, y_val: np.ndarray) -> np.ndarray:
    """Per-model validation MSE, bit-equal to each model's serial mean."""
    squared = net.forward(x_val)
    np.subtract(squared, y_val, out=squared)
    np.square(squared, out=squared)
    return _row_means(squared.reshape(net.n_models, -1))


def _models_from_batch(
    matrix: np.ndarray,
    cfg: MlpConfig,
    prepared: _Prepared,
    best_state: np.ndarray,
    epochs_run: np.ndarray,
) -> List[NeuralNetPredictor]:
    layers, _, _ = _param_layout(prepared.sizes)
    return [
        NeuralNetPredictor._from_batch_state(
            config=cfg,
            history=matrix[index].copy(),
            net=_extract_model(layers, best_state[index]),
            depth=prepared.depth,
            slot_mean_vec=prepared.slot_means[index].copy(),
            x_mean=prepared.x_mean[index].copy(),
            x_std=prepared.x_std[index].copy(),
            y_mean=float(prepared.y_mean[index]),
            y_std=float(prepared.y_std[index]),
            fit_epochs=int(epochs_run[index]),
        )
        for index in range(matrix.shape[0])
    ]


def models_from_params(
    matrix: np.ndarray, cfg: MlpConfig, state: BatchFitState
) -> List[NeuralNetPredictor]:
    """Reconstruct the fitted predictors of a batch from its saved state.

    Zero training: the normalization stats are recomputed (they are a pure
    function of the data) and the saved ``(K, P)`` buffer is decoded into
    per-model networks.  Used by the warm-resume path to serve a
    store-persisted refit without replaying it.
    """
    prepared = _prepare_batch(matrix, cfg)
    return _models_from_batch(matrix, cfg, prepared, state.params, state.epochs)


def fit_equal_length_state(
    matrix: np.ndarray,
    cfg: MlpConfig,
    init_params: Optional[np.ndarray] = None,
    patience: Optional[int] = None,
) -> Tuple[List[NeuralNetPredictor], BatchFitState]:
    """Train one equal-length batch, optionally warm-started.

    Without ``init_params`` this is exactly the cold kernel (bit-identical
    to the per-model reference loop).  With a ``(K, P)`` buffer, training
    resumes from those weights: the buffer overwrites the He init *after*
    the init draw (keeping the rng stream aligned with a cold fit), and the
    warm parameters' own validation loss seeds the early-stopping baseline,
    so the fit can never return weights worse on validation than its
    starting point.  ``patience`` overrides ``cfg.patience`` — warm refits pass a
    short fine-tune patience, since the initializer is already near the
    advanced window's optimum and a full cold-schedule patience mostly
    chases sub-1e-6 validation wiggles.

    A batch wider than :data:`FUSED_SLAB_MODELS` is trained as consecutive
    slabs of at most that many models, each an independent full fit.
    Splitting is bit-identical to an unbounded stack — every model draws
    from its own copy of the shared-seed RNG stream and all tensor math is
    row-local — so the bound only caps the working set.  The claim leans
    on every per-model reduction in the kernel summing each row on its own
    (see the y_mean note in :func:`_prepare_batch`): a reduction whose
    order depended on K would put a ``(1, n)`` remainder slab in a
    different float family than a wide stack, and the slab-straddling
    equivalence tests would catch it.
    """
    n_models = matrix.shape[0]
    if n_models > FUSED_SLAB_MODELS:
        models: List[NeuralNetPredictor] = []
        parts: List[BatchFitState] = []
        for lo in range(0, n_models, FUSED_SLAB_MODELS):
            hi = lo + FUSED_SLAB_MODELS
            sub_init = None if init_params is None else init_params[lo:hi]
            sub_models, sub_state = fit_equal_length_state(
                matrix[lo:hi], cfg, sub_init, patience
            )
            models.extend(sub_models)
            parts.append(sub_state)
        state = BatchFitState(
            params=np.vstack([part.params for part in parts]),
            best_val=np.concatenate([part.best_val for part in parts]),
            epochs=np.concatenate([part.epochs for part in parts]),
        )
        return models, state
    prepared = _prepare_batch(matrix, cfg)
    x_train, y_train = prepared.x_train, prepared.y_train
    x_val, y_val = prepared.x_val, prepared.y_val
    rng = prepared.rng

    n_train = x_train.shape[1]
    rows = max(cfg.batch_size, x_val.shape[1])
    net = _BatchedMlp(n_models, prepared.sizes, rng, rows)
    if init_params is not None:
        if init_params.shape != net.params.shape:
            raise ValueError(
                f"warm-start buffer shape {init_params.shape} does not match "
                f"batch parameter shape {net.params.shape}"
            )
        net.params[:] = init_params
    best_state = net.snapshot()  # indexed by original model position
    if init_params is not None:
        best_val = _flat_val_losses(net, x_val, y_val)
    else:
        best_val = np.full(n_models, np.inf)
    effective_patience = cfg.patience if patience is None else patience
    stale = np.zeros(n_models, dtype=int)
    epochs_run = np.zeros(n_models, dtype=int)
    # The per-epoch shuffle gathers into these once-allocated buffers.
    x_epoch, y_epoch = np.empty_like(x_train), np.empty_like(y_train)
    batch_starts = range(0, n_train, cfg.batch_size)
    steps = step_models = 0
    # Models still training, as original positions into the (shrinking) stack.
    live = np.arange(n_models)
    for _ in range(cfg.max_epochs):
        if live.size == 0:
            break
        perm = rng.permutation(n_train)
        # mode="clip" writes straight into ``out`` (the default "raise"
        # buffers it); a permutation is always in range, so nothing clips.
        np.take(x_train, perm, axis=1, out=x_epoch, mode="clip")
        np.take(y_train, perm, axis=1, out=y_epoch, mode="clip")
        for lo in batch_starts:
            hi = lo + cfg.batch_size
            net.train_batch(
                x_epoch[:, lo:hi], y_epoch[:, lo:hi], cfg.learning_rate, cfg.l2
            )
        steps += len(batch_starts)
        step_models += len(batch_starts) * live.size
        val_loss = _flat_val_losses(net, x_val, y_val)
        epochs_run[live] += 1
        improved = val_loss < best_val[live] - 1e-6
        if improved.any():
            net.copy_models_into(best_state, live[improved], np.flatnonzero(improved))
            best_val[live[improved]] = val_loss[improved]
            stale[live[improved]] = 0
        stale[live[~improved]] += 1
        frozen = stale[live] >= effective_patience
        if frozen.any():
            # Converged models leave the tensor stack — the batch narrows to
            # exactly the work the serial path would still be doing.
            keep = ~frozen
            live = live[keep]
            net.compact(keep)
            x_train, y_train = _keep_rows(x_train, keep), _keep_rows(y_train, keep)
            x_val, y_val = _keep_rows(x_val, keep), _keep_rows(y_val, keep)
            x_epoch, y_epoch = x_epoch[: live.size], y_epoch[: live.size]

    obs.inc("mlp.model_epochs", float(epochs_run.sum()))
    obs.inc("mlp.steps", float(steps))
    obs.inc("mlp.step_models", float(step_models))
    obs.gauge_max("mlp.epochs_max", float(epochs_run.max(initial=0)))
    models = _models_from_batch(matrix, cfg, prepared, best_state, epochs_run)
    state = BatchFitState(params=best_state, best_val=best_val, epochs=epochs_run)
    return models, state
