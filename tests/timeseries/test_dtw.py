"""Tests for dynamic time warping (repro.timeseries.dtw and its oracle).

The two-series kernels (``dtw_matrix``, ``dtw_distance``) are the
definition the batched :func:`repro.timeseries.dtw.dtw_distance_matrix`
is checked against; they live in ``tests/timeseries/spatial_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.dtw import dtw_distance_matrix
from tests.timeseries.spatial_oracle import (
    dtw_distance,
    dtw_distance_matrix_pairwise,
    dtw_matrix,
    dtw_path,
)


def brute_force_dtw(p, q, window=None):
    """Reference O(n*m) per-cell implementation for cross-checking."""
    n, m = len(p), len(q)
    w = window
    if w is not None:
        w = max(w, abs(n - m))
    cost = np.full((n, m), np.inf)
    for i in range(n):
        for j in range(m):
            if w is not None and abs(i - j) > w:
                continue
            d = (p[i] - q[j]) ** 2
            if i == 0 and j == 0:
                cost[i, j] = d
                continue
            best = np.inf
            if i > 0:
                best = min(best, cost[i - 1, j])
            if j > 0:
                best = min(best, cost[i, j - 1])
            if i > 0 and j > 0:
                best = min(best, cost[i - 1, j - 1])
            cost[i, j] = d + best
    return cost


class TestDtwMatrix:
    def test_identical_series_zero_distance(self):
        s = [1.0, 2.0, 3.0, 2.0]
        assert dtw_distance(s, s) == 0.0

    def test_single_elements(self):
        assert dtw_distance([2.0], [5.0]) == pytest.approx(9.0)

    def test_known_small_case(self):
        # Align [1,2,3] to [1,2,2,3]: the duplicated 2 warps for free.
        assert dtw_distance([1, 2, 3], [1, 2, 2, 3]) == pytest.approx(0.0)

    def test_shift_cheaper_than_euclidean(self):
        a = np.array([0, 0, 1, 2, 1, 0, 0], dtype=float)
        b = np.array([0, 1, 2, 1, 0, 0, 0], dtype=float)
        euclid = float(((a - b) ** 2).sum())
        assert dtw_distance(a, b) < euclid

    def test_matches_bruteforce_random(self, rng):
        for _ in range(25):
            n, m = rng.integers(1, 12, size=2)
            p = rng.normal(size=n)
            q = rng.normal(size=m)
            fast = dtw_matrix(p, q)
            slow = brute_force_dtw(p, q)
            finite = np.isfinite(slow)
            assert np.allclose(fast[finite], slow[finite])

    def test_matches_bruteforce_banded(self, rng):
        for _ in range(25):
            n, m = rng.integers(2, 12, size=2)
            w = int(rng.integers(0, 5))
            p = rng.normal(size=n)
            q = rng.normal(size=m)
            fast = dtw_matrix(p, q, window=w)
            slow = brute_force_dtw(p, q, window=w)
            finite = np.isfinite(slow)
            assert np.allclose(fast[finite], slow[finite])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dtw_distance([1.0, np.nan], [1.0, 2.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            dtw_distance(np.ones((2, 2)), [1.0])

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            dtw_matrix([1.0, 2.0], [1.0, 2.0], window=-1)

    def test_normalize_divides_by_lengths(self):
        p, q = [0.0, 0.0, 3.0], [1.0, 1.0]
        raw = dtw_distance(p, q)
        normalized = dtw_distance(p, q, normalize=True)
        assert normalized == pytest.approx(raw / 5.0)


class TestDtwProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    )
    def test_symmetry_and_nonnegativity(self, p, q):
        d_pq = dtw_distance(p, q)
        d_qp = dtw_distance(q, p)
        assert d_pq >= 0.0
        assert d_pq == pytest.approx(d_qp, rel=1e-9, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_self_distance_zero(self, p):
        assert dtw_distance(p, p) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=10),
        st.lists(st.floats(-10, 10), min_size=2, max_size=10),
    )
    def test_band_never_beats_unconstrained(self, p, q):
        unconstrained = dtw_distance(p, q)
        banded = dtw_distance(p, q, window=1)
        assert banded >= unconstrained - 1e-9


class TestDtwPath:
    def test_path_endpoints_and_monotonicity(self, rng):
        p = rng.normal(size=8)
        q = rng.normal(size=6)
        path = dtw_path(p, q)
        assert path[0] == (0, 0)
        assert path[-1] == (7, 5)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 1), (1, 0), (0, 1)}

    def test_path_cost_equals_distance(self, rng):
        p = rng.normal(size=7)
        q = rng.normal(size=7)
        path = dtw_path(p, q)
        cost = sum((p[i] - q[j]) ** 2 for i, j in path)
        assert cost == pytest.approx(dtw_distance(p, q))


class TestDistanceMatrix:
    def test_batch_matches_pairwise(self, rng):
        series = rng.normal(size=(6, 30))
        fast = dtw_distance_matrix(series, window=5)
        for a in range(6):
            for b in range(6):
                expected = 0.0 if a == b else dtw_distance(series[a], series[b], window=5)
                assert fast[a, b] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_unequal_lengths_rejected(self, rng):
        series = [rng.normal(size=10), rng.normal(size=13), rng.normal(size=10)]
        with pytest.raises(ValueError, match="share one length"):
            dtw_distance_matrix(series)

    def test_negative_window_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            dtw_distance_matrix(rng.normal(size=(3, 10)), window=-1)

    def test_zscore_makes_scaling_irrelevant(self, rng):
        base = rng.normal(size=(1, 40))[0]
        series = [base, 100.0 * base + 7.0]
        dist = dtw_distance_matrix(series, zscore=True)
        assert dist[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_constant_series_zscore_safe(self):
        series = [np.ones(10), np.arange(10.0)]
        dist = dtw_distance_matrix(series, zscore=True)
        assert np.isfinite(dist).all()

    def test_normalized_batch(self, rng):
        """The batch over 2n matches the per-pair loop's normalized distances."""
        series = rng.normal(size=(4, 20))
        raw = dtw_distance_matrix(series)
        norm = dtw_distance_matrix_pairwise(series, normalize=True)
        assert np.allclose(norm, raw / 40.0)
