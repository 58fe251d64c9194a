"""Tests for ECDF and box-plot summaries (repro.timeseries.ecdf)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.ecdf import BoxplotSummary, Ecdf, histogram_shares


class TestEcdf:
    def test_basic_evaluation(self):
        ecdf = Ecdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert ecdf(0.5) == 0.0
        assert ecdf(1.0) == 0.25
        assert ecdf(2.5) == 0.5
        assert ecdf(4.0) == 1.0
        assert ecdf(100.0) == 1.0

    def test_monotone_nondecreasing(self, rng):
        ecdf = Ecdf.from_samples(rng.normal(size=100))
        xs = np.linspace(-4, 4, 50)
        values = [ecdf(x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_range_zero_one(self, samples):
        ecdf = Ecdf.from_samples(samples)
        for x in samples:
            assert 0.0 < ecdf(x) <= 1.0

    def test_quantile_median(self):
        ecdf = Ecdf.from_samples([1, 2, 3, 4, 5])
        assert ecdf.median == 3.0
        assert ecdf.quantile(0.0) == 1.0
        assert ecdf.quantile(1.0) == 5.0

    def test_quantile_out_of_range(self):
        ecdf = Ecdf.from_samples([1.0])
        with pytest.raises(ValueError):
            ecdf.quantile(1.5)

    def test_non_finite_samples_dropped(self):
        ecdf = Ecdf.from_samples([1.0, np.nan, 2.0, np.inf])
        assert ecdf.values.size == 2

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            Ecdf.from_samples([np.nan])

    def test_evaluate_grid(self):
        ecdf = Ecdf.from_samples([1.0, 2.0])
        pairs = ecdf.evaluate([0.0, 1.5, 3.0])
        assert pairs == [(0.0, 0.0), (1.5, 0.5), (3.0, 1.0)]

    def test_mean(self):
        assert Ecdf.from_samples([1.0, 3.0]).mean == 2.0


class TestBoxplotSummary:
    def test_known_quartiles(self):
        summary = BoxplotSummary.from_samples(range(1, 101))
        assert summary.median == pytest.approx(50.5)
        assert summary.q25 == pytest.approx(25.75)
        assert summary.q75 == pytest.approx(75.25)
        assert summary.whisker_low == 1
        assert summary.whisker_high == 100
        assert summary.n == 100

    def test_ordering_invariant(self, rng):
        summary = BoxplotSummary.from_samples(rng.normal(size=200))
        assert (
            summary.whisker_low
            <= summary.q25
            <= summary.median
            <= summary.q75
            <= summary.whisker_high
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxplotSummary.from_samples([])


class TestHistogramShares:
    def test_shares_sum_to_at_most_one(self, rng):
        samples = rng.integers(2, 30, size=100)
        shares = histogram_shares(samples, [2, 4, 8, 16, 31])
        assert sum(s for _, s in shares) == pytest.approx(1.0)

    def test_labels(self):
        shares = histogram_shares([2, 3, 5], [2, 4, 6])
        assert [label for label, _ in shares] == ["2-3", "4-5"]
        assert [s for _, s in shares] == pytest.approx([2 / 3, 1 / 3])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            histogram_shares([1.0], [3, 2])
        with pytest.raises(ValueError):
            histogram_shares([1.0], [2])
        with pytest.raises(ValueError):
            histogram_shares([], [0, 1])
