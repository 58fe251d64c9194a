"""Tests for series differencing (repro.timeseries.smoothing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.smoothing import difference


class TestDifferencing:
    def test_difference_known(self):
        assert difference([1.0, 4.0, 9.0]) == pytest.approx([3.0, 5.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            difference([1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=30))
    def test_roundtrip(self, values):
        x = np.asarray(values)
        d = difference(x)
        assert x[:-1] + d == pytest.approx(x[1:], abs=1e-8)
