"""Tests for series differencing (repro.timeseries.smoothing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.smoothing import difference


class TestDifferencing:
    def test_difference_known(self):
        assert difference([1.0, 4.0, 9.0]) == pytest.approx([3.0, 5.0])

    def test_seasonal_lag(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert difference(x, lag=2) == pytest.approx([2.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            difference([1.0], lag=1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=30),
        st.integers(1, 2),
    )
    def test_roundtrip(self, values, lag):
        if len(values) <= lag:
            return
        x = np.asarray(values)
        d = difference(x, lag=lag)
        assert x[:-lag] + d == pytest.approx(x[lag:], abs=1e-8)
