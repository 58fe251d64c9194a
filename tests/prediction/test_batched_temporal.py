"""Batched-vs-serial equivalence for the MLP training kernel.

The batched trainer (:mod:`repro.prediction.temporal.batched`) claims
*bit-identical* results to the per-model reference loop in
:mod:`tests.prediction.mlp_oracle` — not a tolerance, equality.  These
tests pin that claim across seeds, box shapes, history lengths and the
early-stopping edge cases, plus the integration through the combined
predictor against per-series oracle fits.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.prediction.combined import SpatialTemporalConfig, SpatialTemporalPredictor
from repro.prediction.registry import fit_temporal_batch
from repro.prediction.spatial.signatures import ClusteringMethod, SignatureSearchConfig
from repro.prediction.temporal import batched as batched_module
from repro.prediction.temporal.batched import (
    _BatchedMlp,
    _row_means,
    _row_stds,
    fit_equal_length_state,
)
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor
from repro.prediction.temporal.warm import fit_neural_fleet
from tests.prediction.mlp_oracle import SerialNeuralNetPredictor, serial_fits

# A small config keeps every fit fast; bit-equivalence is config-agnostic.
FAST = MlpConfig(hidden_layers=(8, 4), period=24, max_epochs=40, patience=5)


def make_histories(k, size, seed, period=24):
    """K diurnal series with heterogeneous noise (so convergence differs)."""
    rng = np.random.default_rng(seed)
    t = np.arange(size)
    out = []
    for _ in range(k):
        base = 40 + 25 * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
        trend = rng.uniform(-0.02, 0.02) * t
        noise = rng.normal(0, rng.uniform(0.5, 4.0), size)
        out.append(np.maximum(base + trend + noise, 0.0))
    return out


def batch_fits(histories, cfg=FAST):
    """One box's batched fit: a cold one-request call of the fleet trainer."""
    ((models, _),) = fit_neural_fleet([(histories, None)], cfg)
    return models


def assert_equivalent(serial, batched, horizon=24):
    assert len(serial) == len(batched)
    for s, b in zip(serial, batched):
        assert s._fit_epochs == b._fit_epochs
        np.testing.assert_array_equal(s.predict(horizon), b.predict(horizon))


class TestEquivalence:
    @pytest.mark.parametrize(
        "k,size,seed",
        [
            (2, 24 * 4, 0),
            (3, 24 * 5, 1),
            (5, 24 * 6, 2),
            (8, 24 * 4 + 7, 3),  # length not a multiple of the period
            (4, 24 * 3, 4),
        ],
    )
    def test_bit_identical_forecasts(self, k, size, seed):
        histories = make_histories(k, size, seed)
        batched = batch_fits(histories)
        assert_equivalent(serial_fits(histories, FAST), batched)

    def test_models_stop_at_different_epochs(self):
        # The per-model convergence mask is only exercised when models
        # actually stop at different epochs — pin a case where they do.
        histories = make_histories(6, 24 * 6, seed=11)
        serial = serial_fits(histories, FAST)
        epochs = {m._fit_epochs for m in serial}
        assert len(epochs) > 1, "fixture must trigger divergent early stopping"
        assert_equivalent(serial, batch_fits(histories))

    def test_k1_group_matches_oracle(self):
        (history,) = make_histories(1, 24 * 5, seed=5)
        (batched,) = batch_fits([history])
        (serial,) = serial_fits([history], FAST)
        assert_equivalent([serial], [batched])

    def test_k1_degenerate_batch_kernel(self):
        # Call the tensor kernel directly with a width-1 stack: the 3-D ops
        # must agree with the 2-D reference loop.
        (history,) = make_histories(1, 24 * 5, seed=6)
        (batched,), _ = fit_equal_length_state(history[None, :], FAST)
        (serial,) = serial_fits([history], FAST)
        assert_equivalent([serial], [batched])

    def test_mixed_history_lengths_grouped(self):
        short = make_histories(2, 24 * 4, seed=7)
        long = make_histories(3, 24 * 6, seed=8)
        histories = [short[0], long[0], short[1], long[1], long[2]]
        batched = batch_fits(histories)
        assert_equivalent(serial_fits(histories, FAST), batched)

    def test_default_config(self):
        # The exact production config (period=96, deeper net).
        cfg = MlpConfig(max_epochs=12)
        histories = make_histories(3, 96 * 3, seed=9, period=96)
        serial = serial_fits(histories, cfg)
        batched = batch_fits(histories, cfg)
        assert_equivalent(serial, batched, horizon=96)


class TestWorkspace:
    """The reused training workspace at every row count it serves."""

    # n_val = 0.3 * 144 = 43 validation rows > batch_size = 16: validation
    # is the workspace's widest view, minibatches (16, then a 5-row tail)
    # are narrower prefixes of it.
    CFG = MlpConfig(
        hidden_layers=(8, 4), period=24, batch_size=16, validation_fraction=0.3,
        max_epochs=40, patience=3,
    )

    def test_compaction_and_warm_start_match_oracle(self):
        cfg = self.CFG
        histories = make_histories(8, 24 * 9, seed=12)
        models, state = fit_equal_length_state(np.stack(histories), cfg)
        serial = serial_fits(histories, cfg)
        assert len(set(state.epochs.tolist())) >= 3, "fixture must compact repeatedly"
        assert_equivalent(serial, models)

        # Warm refit of the next window from the cold best parameters.
        shifted = [np.roll(h, -24) for h in histories]
        warm_models, warm_state = fit_equal_length_state(
            np.stack(shifted), cfg, init_params=state.params, patience=2
        )
        warm_serial = [
            SerialNeuralNetPredictor(cfg).fit(h, init=row, patience=2)
            for h, row in zip(shifted, state.params)
        ]
        assert len(set(warm_state.epochs.tolist())) >= 2
        assert_equivalent(warm_serial, warm_models)


class TestRowReductions:
    """The kernel's per-model means are one inner-axis reduction, bit-equal
    to reducing each row on its own (the serial path's scalar means)."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 64),
        n=st.integers(1, 300),
        kept=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
    )
    def test_row_means_match_per_row_means(self, k, n, kept, seed, scale):
        rng = np.random.default_rng(seed)
        rows = rng.normal(40.0, 25.0, size=(k, n)) * scale
        # After compaction the kernel reduces a [:K] prefix of its buffer.
        prefix = rows[: min(kept, k)]
        for matrix in (rows, prefix):
            assert matrix.flags["C_CONTIGUOUS"]
            means = _row_means(matrix)
            expected = np.array([float(r.mean()) for r in matrix])
            assert means.tobytes() == expected.tobytes()
            stds = _row_stds(matrix, means)
            expected_std = np.array([float(r.std()) for r in matrix])
            assert stds.tobytes() == expected_std.tobytes()


def test_train_step_allocates_nothing():
    """20 training steps at K=64 stay within a small, fixed allocation slack.

    The workspace is allocated once; what remains are NumPy's transient
    iterator buffers (~64 KiB each) and Python view objects.
    """
    cfg = MlpConfig()
    k, rows, n_features = 64, 64, 9
    rng = np.random.default_rng(0)
    net = _BatchedMlp(k, [n_features, *cfg.hidden_layers, 1], rng, rows)
    x = rng.normal(size=(k, rows, n_features))
    y = rng.normal(size=(k, rows, 1))
    for _ in range(3):  # warm up: build the row views
        net.train_batch(x, y, cfg.learning_rate, cfg.l2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            net.train_batch(x, y, cfg.learning_rate, cfg.l2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 256 * 1024


class TestTrainingCounters:
    def test_counters_match_fit_state(self):
        cfg = TestWorkspace.CFG
        obs.reset_metrics()
        matrix = np.stack(make_histories(6, 24 * 6, seed=11))
        _, state = fit_equal_length_state(matrix, cfg)
        snap = obs.metrics_snapshot()
        counters, gauges = snap["counters"], snap["gauges"]
        # 144 samples - 3 days of lags = 72 rows: 21 validation, 51 training.
        n_batches = -(-51 // cfg.batch_size)
        epochs_max = int(state.epochs.max())
        assert len(set(state.epochs.tolist())) > 1  # the width really shrank
        assert counters["mlp.model_epochs"] == state.epochs.sum()
        assert counters["mlp.steps"] == epochs_max * n_batches
        assert counters["mlp.step_models"] == state.epochs.sum() * n_batches
        assert gauges["mlp.epochs_max"] == epochs_max

    def test_slabs_add_up(self, monkeypatch):
        obs.reset_metrics()
        monkeypatch.setattr(batched_module, "FUSED_SLAB_MODELS", 2)
        matrix = np.stack(make_histories(5, 24 * 4, seed=13))
        _, state = fit_equal_length_state(matrix, FAST)
        counters = obs.metrics_snapshot()["counters"]
        assert counters["mlp.model_epochs"] == state.epochs.sum()
        assert obs.metrics_snapshot()["gauges"]["mlp.epochs_max"] == state.epochs.max()


class TestRegistry:
    def test_batch_fitter_order_and_type(self):
        histories = make_histories(3, 24 * 4, seed=10)
        fitted = fit_temporal_batch("neural", histories, period=24)
        assert len(fitted) == 3
        assert all(isinstance(m, NeuralNetPredictor) for m in fitted)


class TestCombinedIntegration:
    def _matrix(self, seed=21, n_series=6, days=5, period=24):
        rng = np.random.default_rng(seed)
        t = np.arange(days * period)
        # Two uncorrelated workload shapes, so the search keeps two
        # signatures and the temporal fit is a real (K=2) batch.
        bases = (
            30 + 20 * np.sin(2 * np.pi * t / period),
            30 + 20 * np.sin(2 * np.pi * t / period + np.pi / 2),
        )
        return np.vstack(
            [
                rng.uniform(0.5, 2.0) * bases[i % 2] + rng.normal(0, 1.0, size=t.size)
                for i in range(n_series)
            ]
        )

    def test_batched_matches_serial_pipeline(self):
        config = SpatialTemporalConfig(
            search=SignatureSearchConfig(method=ClusteringMethod.CBC),
            temporal_model="neural",
            period=24,
        )
        data = self._matrix()
        predictor = SpatialTemporalPredictor(config)
        batched = predictor.fit_predict(data, 24)
        spatial = predictor.spatial_model
        assert len(spatial.signature_indices) >= 2  # a real batch, not K=1
        serial = np.vstack(
            [
                SerialNeuralNetPredictor(MlpConfig(period=24)).fit(data[idx]).predict(24)
                for idx in spatial.signature_indices
            ]
        )
        expected = np.clip(spatial.reconstruct(serial), config.clip_min, np.inf)
        np.testing.assert_array_equal(batched.predictions, expected)
