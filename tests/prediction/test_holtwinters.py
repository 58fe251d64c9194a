"""Tests for Holt-Winters smoothing (repro.prediction.temporal.holtwinters)."""

import numpy as np
import pytest

from repro.prediction.temporal.holtwinters import HoltWintersPredictor


class TestHoltWinters:
    def test_pure_seasonal_pattern(self):
        pattern = np.array([10.0, 20.0, 30.0, 20.0])
        history = np.tile(pattern, 10)
        forecast = HoltWintersPredictor(period=4).fit(history).predict(4)
        assert forecast == pytest.approx(pattern, abs=1.5)

    def test_constant_series(self):
        forecast = HoltWintersPredictor(period=4).fit(np.full(40, 5.0)).predict(8)
        assert forecast == pytest.approx(np.full(8, 5.0), abs=0.1)

    def test_seasonal_plus_noise(self, rng):
        pattern = np.array([10.0, 50.0] * 4)
        history = np.tile(pattern, 12) + rng.normal(0, 1, size=96)
        forecast = HoltWintersPredictor(period=8).fit(history).predict(8)
        assert forecast == pytest.approx(pattern, abs=5.0)

    def test_damped_trend_bounded(self):
        history = np.arange(48.0)  # strong upward trend
        forecast = HoltWintersPredictor(period=4).fit(history).predict(100)
        # A damped trend must not run away linearly for 100 steps.
        assert forecast[-1] < history[-1] + 30.0

    def test_phase_alignment_partial_period(self):
        pattern = [1.0, 9.0]
        history = np.tile(pattern, 10)[:-1]  # ends mid-period
        forecast = HoltWintersPredictor(period=2).fit(history).predict(2)
        assert forecast[0] == pytest.approx(9.0, abs=2.0)
        assert forecast[1] == pytest.approx(1.0, abs=2.0)

    def test_grid_search_picks_lower_sse(self, rng):
        history = np.tile([5.0, 25.0, 10.0, 40.0], 15) + rng.normal(0, 0.5, size=60)
        searched = HoltWintersPredictor(period=4).fit(history)
        assert searched._alpha_ in (0.05, 0.2, 0.5, 0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            HoltWintersPredictor(period=1)

    def test_needs_period_plus_one(self):
        with pytest.raises(ValueError):
            HoltWintersPredictor(period=8).fit(np.ones(8))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            HoltWintersPredictor().predict(1)
