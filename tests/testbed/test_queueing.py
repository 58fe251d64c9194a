"""Tests for queueing primitives (repro.testbed.queueing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testbed.queueing import ps_response_time


class TestPsResponseTime:
    def test_zero_load_is_service_time(self):
        assert ps_response_time(0.1, 0.0) == pytest.approx(0.1)

    def test_half_load_doubles(self):
        assert ps_response_time(0.1, 0.5) == pytest.approx(0.2)

    def test_capped_at_rho_cap(self):
        capped = ps_response_time(0.1, 2.0, rho_cap=0.9)
        assert capped == pytest.approx(0.1 / 0.1)

    def test_monotone_in_rho(self):
        values = [ps_response_time(0.05, rho) for rho in np.linspace(0, 1.2, 20)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ps_response_time(-0.1, 0.5)
        with pytest.raises(ValueError):
            ps_response_time(0.1, 0.5, rho_cap=1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(-1.0, 5.0))
    def test_at_least_service_time(self, s, rho):
        assert ps_response_time(s, rho) >= s - 1e-12
