"""Tests for the temporal-model registry (repro.prediction.registry)."""

import hashlib

import numpy as np
import pytest

from repro.prediction.base import TemporalPredictor, fit_predict
from repro.prediction.registry import (
    available_temporal_models,
    fit_temporal_batch,
    fit_temporal_batch_warm,
    make_temporal_model,
)
from repro.prediction.temporal.neural import MlpConfig
from repro.trace.generator import FleetConfig, generate_box
from tests.prediction.mlp_oracle import SerialNeuralNetPredictor


def reference_model(name, period):
    """Per-series reference fit: the oracle loop for the MLP, whose
    registry ``fit`` is itself a width-1 kernel call."""
    if name == "neural":
        return SerialNeuralNetPredictor(MlpConfig(period=period))
    return make_temporal_model(name, period=period)


class TestRegistry:
    def test_expected_models_present(self):
        names = available_temporal_models()
        for expected in (
            "ar",
            "arima",
            "holt_winters",
            "last_value",
            "moving_average",
            "neural",
            "seasonal_mean",
            "seasonal_naive",
        ):
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown temporal model"):
            make_temporal_model("nope")

    def test_instances_are_fresh(self):
        a = make_temporal_model("seasonal_naive")
        b = make_temporal_model("seasonal_naive")
        assert a is not b

    @pytest.mark.parametrize("name", ["last_value", "moving_average", "seasonal_naive",
                                      "seasonal_mean", "ar", "arima", "holt_winters"])
    def test_every_model_fits_and_predicts(self, name, rng):
        history = 30 + 10 * np.sin(2 * np.pi * np.arange(288) / 96) + rng.normal(0, 1, 288)
        model = make_temporal_model(name, period=96)
        assert isinstance(model, TemporalPredictor)
        forecast = fit_predict(model, history, 96)
        assert forecast.shape == (96,)
        assert np.isfinite(forecast).all()
        # Forecasts should stay in a sane band around the signal.
        assert forecast.mean() == pytest.approx(30.0, abs=15.0)

    def test_neural_model_smoke(self, rng):
        history = 30 + 10 * np.sin(2 * np.pi * np.arange(288) / 96) + rng.normal(0, 1, 288)
        forecast = fit_predict(make_temporal_model("neural", period=96), history, 96)
        assert forecast.shape == (96,)

    def test_period_forwarded(self):
        model = make_temporal_model("seasonal_naive", period=48)
        assert model.period == 48


class TestFitContract:
    """Every registered model plugs into the registry's multi-series fits."""

    @pytest.mark.parametrize("name", available_temporal_models())
    def test_batch_fits_match_per_series(self, name):
        period, horizon = 24, 24
        rng = np.random.default_rng(3)
        t = np.arange(period * 6)
        histories = [
            30 + 10 * np.sin(2 * np.pi * t / period + phase) + rng.normal(0, 1, t.size)
            for phase in (0.0, 1.0, 2.0)
        ]
        expected = [
            reference_model(name, period).fit(h).predict(horizon) for h in histories
        ]

        batch = fit_temporal_batch(name, histories, period=period)
        warm, state = fit_temporal_batch_warm(name, histories, period=period)

        for fitted in (batch, warm):
            assert len(fitted) == len(histories)
            for model, forecast in zip(fitted, expected):
                np.testing.assert_array_equal(model.predict(horizon), forecast)
        # Only the kernel model (neural) carries a fit-to-fit state.
        assert (state is None) == (name != "neural")


#: blake2b-16 of each registry model's 96-window forecast (registry
#: defaults, period 96) of one fixed generated series.
FORECAST_DIGESTS = {
    "last_value": "794f1d631983b7595be83ce4f0e81721",
    "moving_average": "cc4d63ff8a3231a6834a843893162b32",
    "seasonal_naive": "99324e6ab185ca1b4a1d018dad9c6c73",
    "seasonal_mean": "e4b062ecde094a7524ccdf0eeed14c8f",
    "ar": "cab2b0f5297b69416ca2b57583c8313f",
    "arima": "903327722439ad5006089c8265eb3f51",
    "holt_winters": "06273f63f2a393f794a203101d432483",
}


@pytest.fixture(scope="module")
def pinned_history():
    return generate_box(0, FleetConfig(days=6, seed=5)).demand_matrix()[0]


@pytest.mark.parametrize("name", sorted(FORECAST_DIGESTS))
def test_registry_forecast_pinned(name, pinned_history):
    forecast = make_temporal_model(name).fit(pinned_history).predict(96)
    digest = hashlib.blake2b(forecast.tobytes(), digest_size=16).hexdigest()
    assert digest == FORECAST_DIGESTS[name]
