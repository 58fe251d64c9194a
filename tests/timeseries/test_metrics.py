"""Tests for accuracy metrics (repro.timeseries.metrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.metrics import (
    absolute_percentage_errors,
    mean_absolute_percentage_error,
    peak_absolute_percentage_error,
)


class TestApe:
    def test_exact_prediction_zero_error(self):
        actual = [10.0, 20.0, 30.0]
        assert mean_absolute_percentage_error(actual, actual) == 0.0

    def test_known_value(self):
        # |10-12|/10 = 0.2, |20-15|/20 = 0.25 -> mean 22.5%
        assert mean_absolute_percentage_error([10, 20], [12, 15]) == pytest.approx(22.5)

    def test_as_fraction(self):
        # The fraction form is the per-window errors' mean.
        errors = absolute_percentage_errors([10, 20], [12, 15])
        assert errors.mean() == pytest.approx(0.225)

    def test_zero_actuals_excluded(self):
        errors = absolute_percentage_errors([0.0, 10.0], [5.0, 11.0])
        assert errors == pytest.approx([0.1])

    def test_all_zero_actuals_nan(self):
        assert np.isnan(mean_absolute_percentage_error([0.0, 0.0], [1.0, 2.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.5, 100), min_size=1, max_size=20))
    def test_nonnegative(self, actual):
        predicted = [a * 1.1 for a in actual]
        assert mean_absolute_percentage_error(actual, predicted) >= 0.0


class TestPeakApe:
    def test_only_peak_windows_counted(self):
        actual = np.array([10.0, 80.0, 20.0, 90.0])
        predicted = np.array([0.0, 72.0, 0.0, 99.0])
        # Peaks at 80 (err 10%) and 90 (err 10%).
        value = peak_absolute_percentage_error(actual, predicted, peak_threshold=60.0)
        assert value == pytest.approx(10.0)

    def test_no_peaks_nan(self):
        assert np.isnan(
            peak_absolute_percentage_error([1.0, 2.0], [1.0, 2.0], peak_threshold=60.0)
        )


class TestFiniteAggregates:
    def test_finite_mean_filters(self):
        from repro.timeseries.metrics import finite_mean

        assert finite_mean([1.0, float("nan"), 3.0, float("inf")]) == 2.0

    def test_finite_mean_empty_and_all_nan(self):
        from repro.timeseries.metrics import finite_mean

        assert np.isnan(finite_mean([]))
        assert np.isnan(finite_mean([float("nan")]))

    def test_finite_std(self):
        from repro.timeseries.metrics import finite_std

        assert finite_std([1.0, float("nan"), 3.0]) == 1.0
        assert np.isnan(finite_std([float("nan")]))

    def test_finite_values_returns_array(self):
        from repro.timeseries.metrics import finite_values

        out = finite_values([1.0, float("-inf"), 2.0])
        assert out.tolist() == [1.0, 2.0]
