"""Tests for DTW-based clustering (repro.prediction.spatial.dtw_cluster)."""

import numpy as np
import pytest

from repro.prediction.spatial.dtw_cluster import DtwClusterResult, dtw_clusters


class TestDtwClusters:
    def test_two_shape_families(self, rng):
        t = np.arange(60)
        rising = [t * (1 + 0.05 * rng.normal(size=60)) for _ in range(3)]
        falling = [(60 - t) * (1 + 0.05 * rng.normal(size=60)) for _ in range(3)]
        result = dtw_clusters(rising + falling, zscore=False)
        labels = result.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_zscore_groups_scaled_copies(self, rng):
        base = np.sin(np.linspace(0, 6, 50)) + 0.02 * rng.normal(size=50)
        series = [base, 100 * base + 5, -base]
        result = dtw_clusters(series, zscore=True)
        assert result.labels[0] == result.labels[1]
        assert result.labels[0] != result.labels[2]

    def test_signature_in_own_cluster(self, rng):
        series = rng.normal(size=(8, 40))
        result = dtw_clusters(series)
        for cluster, signature in enumerate(result.signatures):
            assert result.labels[signature] == cluster

    def test_cluster_count_within_sweep(self, rng):
        series = rng.normal(size=(10, 30))
        result = dtw_clusters(series)
        assert 2 <= result.n_clusters <= 5  # sweep is 2..n//2

    def test_max_clusters_respected(self, rng):
        series = rng.normal(size=(10, 30))
        result = dtw_clusters(series, max_clusters=2)
        assert result.n_clusters == 2

    def test_single_series(self, rng):
        result = dtw_clusters([rng.normal(size=20)])
        assert result == DtwClusterResult(
            labels=(0,), signatures=(0,), n_clusters=1, silhouette=0.0
        )

    def test_silhouette_reported(self, rng):
        base = rng.normal(size=50)
        series = [base + 0.01 * rng.normal(size=50) for _ in range(3)] + [
            10 + 5 * rng.normal(size=50) for _ in range(3)
        ]
        result = dtw_clusters(series, zscore=False)
        assert -1.0 <= result.silhouette <= 1.0
        assert result.silhouette > 0.4  # clear structure

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            dtw_clusters(np.zeros((0, 5)))
        with pytest.raises(ValueError):
            dtw_clusters(rng.normal(size=10))

    def test_banded_close_to_unbanded(self, rng):
        """A reasonable band should not change the chosen structure much."""
        base_a, base_b = rng.normal(size=40), rng.normal(size=40)
        series = [base_a + 0.1 * rng.normal(size=40) for _ in range(3)]
        series += [base_b + 0.1 * rng.normal(size=40) for _ in range(3)]
        unbanded = dtw_clusters(series, window=None)
        banded = dtw_clusters(series, window=8)
        assert unbanded.labels == banded.labels


class TestSilhouetteSweepRegression:
    """The incremental-cut sweep must choose the same k as a scratch sweep."""

    def test_chosen_k_unchanged(self, rng):
        # Three shape families + noise: a non-trivial silhouette landscape.
        t = np.linspace(0, 6, 80)
        series = []
        for family in (np.sin(t), np.cos(t), t / 6.0):
            for _ in range(4):
                series.append(family + 0.05 * rng.normal(size=t.size))
        data = np.asarray(series)

        result = dtw_clusters(data, window=8, zscore=True)

        # Reference: the pre-incremental algorithm — an independent cut per k.
        from repro.timeseries.clustering import HierarchicalClustering
        from repro.timeseries.dtw import dtw_distance_matrix
        from repro.timeseries.silhouette import silhouette_values

        distances = dtw_distance_matrix(data, window=8, zscore=True)
        best = None
        for k in range(2, data.shape[0] // 2 + 1):
            labels = HierarchicalClustering(distances).cuts([k])[k]
            score = float(silhouette_values(distances, labels).mean())
            if best is None or score > best[0] + 1e-12:
                best = (score, k, labels)

        assert result.n_clusters == best[1]
        assert result.silhouette == pytest.approx(best[0])
        assert list(result.labels) == best[2]
