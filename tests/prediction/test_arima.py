"""Tests for the ARIMA predictor (repro.prediction.temporal.arima)."""

import numpy as np
import pytest

from repro.prediction.temporal.arima import ArimaPredictor


class TestArima:
    def test_constant_series(self):
        forecast = ArimaPredictor().fit(np.full(50, 7.0)).predict(5)
        assert forecast == pytest.approx(np.full(5, 7.0), abs=0.5)

    def test_linear_trend_with_differencing(self):
        history = np.arange(100.0)
        forecast = ArimaPredictor().fit(history).predict(5)
        assert forecast == pytest.approx([100, 101, 102, 103, 104], abs=1.0)

    def test_ar1_process(self, rng):
        phi = 0.8
        x = np.zeros(2000)
        eps = rng.normal(0, 1, size=2000)
        for t in range(1, 2000):
            x[t] = phi * x[t - 1] + eps[t]
        model = ArimaPredictor().fit(x)
        one_step = model.predict(1)[0]
        assert one_step == pytest.approx(phi * x[-1], abs=1.0)

    def test_forecast_decays_to_mean(self, rng):
        x = 10.0 + np.random.default_rng(0).normal(0, 1, size=500)
        forecast = ArimaPredictor().fit(x).predict(50)
        assert forecast[-1] == pytest.approx(10.0, abs=1.5)

    def test_horizon_shape(self, rng):
        forecast = ArimaPredictor().fit(rng.normal(size=200)).predict(96)
        assert forecast.shape == (96,)
        assert np.isfinite(forecast).all()

    def test_too_short_history_rejected(self):
        with pytest.raises(ValueError):
            ArimaPredictor().fit([1.0, 2.0])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ArimaPredictor().predict(1)
