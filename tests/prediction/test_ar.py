"""Tests for the autoregressive predictor (repro.prediction.temporal.ar)."""

import numpy as np
import pytest

from repro.prediction.temporal.ar import AutoRegressivePredictor


class TestFit:
    def test_recovers_ar1_coefficient(self, rng):
        phi = 0.7
        x = np.empty(3000)
        x[0] = 0.0
        eps = rng.normal(0, 0.5, size=3000)
        for t in range(1, 3000):
            x[t] = phi * x[t - 1] + eps[t]
        model = AutoRegressivePredictor(period=10)
        model.fit(x)
        assert model._coef[0] == pytest.approx(phi, abs=0.05)

    def test_perfect_on_linear_recurrence(self):
        # x_t = 0.5 x_{t-1} + 1 converges; the fit should be exact.
        x = [10.0]
        for _ in range(60):
            x.append(0.5 * x[-1] + 1.0)
        model = AutoRegressivePredictor(period=10).fit(x)
        forecast = model.predict(3)
        expected = [0.5 * x[-1] + 1.0]
        expected.append(0.5 * expected[-1] + 1.0)
        expected.append(0.5 * expected[-1] + 1.0)
        assert forecast == pytest.approx(expected, abs=1e-6)

    def test_seasonal_lag_captures_periodicity(self):
        pattern = np.array([1.0, 5.0, 2.0, 8.0])
        history = np.tile(pattern, 8)
        model = AutoRegressivePredictor(period=4).fit(history)
        forecast = model.predict(4)
        assert forecast == pytest.approx(pattern, abs=1e-6)

    def test_short_history_degrades_to_mean(self):
        model = AutoRegressivePredictor(period=96)
        model.fit([3.0, 5.0])
        # History shorter than order+1 rows still yields a usable forecast.
        forecast = model.predict(2)
        assert np.isfinite(forecast).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoRegressivePredictor(period=0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            AutoRegressivePredictor().predict(1)


class TestForecastShape:
    def test_horizon_length(self, rng):
        model = AutoRegressivePredictor(period=10)
        forecast = model.fit(rng.normal(size=100)).predict(17)
        assert forecast.shape == (17,)

    def test_forecast_finite_on_noise(self, rng):
        model = AutoRegressivePredictor().fit(rng.normal(50, 5, size=400))
        forecast = model.predict(96)
        assert np.isfinite(forecast).all()
