"""Tests for silhouette scores (repro.timeseries.silhouette)."""

import numpy as np
import pytest

from repro.timeseries.silhouette import best_silhouette_cut, silhouette_values


def two_blob_distances():
    """4 items: {0,1} close together, {2,3} close together, blobs far apart."""
    d = np.full((4, 4), 10.0)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 1.0
    d[2, 3] = d[3, 2] = 1.0
    return d


class TestSilhouetteValues:
    def test_good_clustering_high_scores(self):
        d = two_blob_distances()
        values = silhouette_values(d, [0, 0, 1, 1])
        assert np.all(values > 0.8)

    def test_bad_clustering_negative_scores(self):
        d = two_blob_distances()
        values = silhouette_values(d, [0, 1, 0, 1])
        assert np.all(values < 0.0)

    def test_single_cluster_all_zero(self):
        d = two_blob_distances()
        assert np.all(silhouette_values(d, [0, 0, 0, 0]) == 0.0)

    def test_singleton_cluster_zero(self):
        d = two_blob_distances()
        values = silhouette_values(d, [0, 1, 1, 1])
        assert values[0] == 0.0

    def test_values_bounded(self, rng):
        points = rng.normal(size=(10, 2))
        diff = points[:, None] - points[None, :]
        d = np.sqrt((diff**2).sum(axis=2))
        labels = rng.integers(0, 3, size=10)
        values = silhouette_values(d, labels)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ValueError):
            silhouette_values(two_blob_distances(), [0, 1])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            silhouette_values(np.ones((2, 3)), [0, 1])


class TestMeanSilhouette:
    def test_prefers_correct_partition(self):
        d = two_blob_distances()
        good = silhouette_values(d, [0, 0, 1, 1]).mean()
        bad = silhouette_values(d, [0, 1, 0, 1]).mean()
        assert good > bad


class TestBestClusterCount:
    def test_picks_true_structure(self):
        d = two_blob_distances()
        labelings = {2: [0, 0, 1, 1], 3: [0, 1, 2, 2], 4: [0, 1, 2, 3]}
        _, k, labels = best_silhouette_cut(d, labelings)
        assert k == 2
        assert labels == [0, 0, 1, 1]

    def test_tie_prefers_fewer_clusters(self):
        d = np.zeros((3, 3))
        labelings = {3: [0, 1, 2], 1: [0, 0, 0]}  # all-zero distances: scores tie at 0
        assert best_silhouette_cut(d, labelings)[1] == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            best_silhouette_cut(np.zeros((2, 2)), {})
