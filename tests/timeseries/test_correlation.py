"""Tests for Pearson correlation utilities (repro.timeseries.correlation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.correlation import (
    CorrelationDecomposition,
    count_strong_partners,
    decompose_box_correlations,
    pairwise_correlation_matrix,
    pearson,
)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self, rng):
        x = rng.normal(size=5000)
        y = rng.normal(size=5000)
        assert abs(pearson(x, y)) < 0.1

    def test_constant_series_returns_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_matches_numpy(self, rng):
        x = rng.normal(size=50)
        y = 0.3 * x + rng.normal(size=50)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    def test_bounded(self, x):
        y = list(reversed(x))
        value = pearson(x, y)
        assert -1.0 <= value <= 1.0


class TestPairwiseMatrix:
    def test_matches_numpy_corrcoef(self, rng):
        data = rng.normal(size=(5, 80))
        ours = pairwise_correlation_matrix(data)
        theirs = np.corrcoef(data)
        assert np.allclose(ours, theirs)

    def test_diagonal_ones(self, rng):
        data = rng.normal(size=(4, 20))
        assert np.allclose(np.diag(pairwise_correlation_matrix(data)), 1.0)

    def test_constant_row_zero_off_diagonal(self, rng):
        data = np.vstack([np.ones(20), rng.normal(size=20)])
        corr = pairwise_correlation_matrix(data)
        assert corr[0, 1] == 0.0
        assert corr[0, 0] == 1.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pairwise_correlation_matrix(np.arange(5.0))


class TestDecomposition:
    def _box(self, rng, m=4, t=60):
        shared = rng.normal(size=t)
        cpu = [0.8 * shared + 0.2 * rng.normal(size=t) for _ in range(m)]
        ram = [0.9 * c + 0.1 * rng.normal(size=t) for c in cpu]
        return cpu, ram

    def test_strong_pair_detected(self, rng):
        cpu, ram = self._box(rng)
        decomposition = decompose_box_correlations(cpu, ram)
        assert decomposition.inter_pair > 0.8
        assert decomposition.intra_cpu > 0.5

    def test_single_vm_has_nan_intra(self, rng):
        cpu, ram = self._box(rng, m=1)
        decomposition = decompose_box_correlations(cpu, ram)
        assert np.isnan(decomposition.intra_cpu)
        assert np.isnan(decomposition.intra_ram)
        assert np.isfinite(decomposition.inter_pair)

    def test_mismatched_counts_rejected(self, rng):
        cpu, ram = self._box(rng)
        with pytest.raises(ValueError):
            decompose_box_correlations(cpu, ram[:-1])

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            decompose_box_correlations([], [])

    def test_coefficients_are_signed(self, rng):
        t = 60
        cpu = [rng.normal(size=t)]
        ram = [-cpu[0]]
        signed = decompose_box_correlations(cpu, ram)
        assert signed.inter_pair == pytest.approx(-1.0)

    def test_as_dict_keys(self, rng):
        cpu, ram = self._box(rng)
        d = decompose_box_correlations(cpu, ram).as_dict()
        assert set(d) == {"intra_cpu", "intra_ram", "inter_all", "inter_pair"}


class TestStrongPartners:
    def test_counts_and_means(self):
        corr = np.array(
            [
                [1.0, 0.9, 0.1],
                [0.9, 1.0, 0.8],
                [0.1, 0.8, 1.0],
            ]
        )
        counts, means = count_strong_partners(corr, threshold=0.7)
        assert counts.tolist() == [1, 2, 1]
        assert means[0] == pytest.approx(0.9)
        assert means[1] == pytest.approx(0.85)

    def test_no_strong_partner_zero_mean(self):
        corr = np.eye(3)
        counts, means = count_strong_partners(corr, threshold=0.7)
        assert counts.tolist() == [0, 0, 0]
        assert np.all(means == 0.0)

    def test_diagonal_excluded(self):
        corr = np.eye(2)
        counts, _ = count_strong_partners(corr, threshold=0.5)
        assert counts.tolist() == [0, 0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            count_strong_partners(np.ones((2, 3)), 0.5)
