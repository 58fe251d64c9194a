"""Tests for hierarchical clustering (repro.timeseries.clustering)."""

import numpy as np
import pytest

from repro.timeseries.clustering import HierarchicalClustering, clusters_as_lists

try:
    from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
    from scipy.spatial.distance import squareform

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


def random_distance_matrix(rng, n):
    points = rng.normal(size=(n, 3))
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HierarchicalClustering(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            HierarchicalClustering(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            HierarchicalClustering(d)

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            HierarchicalClustering(d)

    def test_single_item(self):
        hc = HierarchicalClustering(np.zeros((1, 1)))
        assert hc.cuts([1])[1] == [0]
        assert hc.merges == []


class TestClustering:
    def test_obvious_two_clusters(self):
        d = np.array(
            [
                [0.0, 1.0, 9.0, 9.0],
                [1.0, 0.0, 9.0, 9.0],
                [9.0, 9.0, 0.0, 1.0],
                [9.0, 9.0, 1.0, 0.0],
            ]
        )
        labels = HierarchicalClustering(d).cuts([2])[2]
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_cut_extremes(self, rng):
        d = random_distance_matrix(rng, 6)
        hc = HierarchicalClustering(d)
        assert hc.cuts([1])[1] == [0] * 6
        assert sorted(hc.cuts([6])[6]) == list(range(6))

    def test_cut_label_count(self, rng):
        d = random_distance_matrix(rng, 8)
        hc = HierarchicalClustering(d)
        for k in range(1, 9):
            labels = hc.cuts([k])[k]
            assert len(set(labels)) == k
            assert max(labels) == k - 1

    def test_cut_out_of_range(self, rng):
        hc = HierarchicalClustering(random_distance_matrix(rng, 4))
        with pytest.raises(ValueError):
            hc.cuts([0])
        with pytest.raises(ValueError):
            hc.cuts([5])

    def test_cuts_are_nested(self, rng):
        """A k-cut refines the (k-1)-cut: merging is hierarchical."""
        d = random_distance_matrix(rng, 10)
        hc = HierarchicalClustering(d)
        coarse = hc.cuts([3])[3]
        fine = hc.cuts([5])[5]
        # Every fine cluster must live inside exactly one coarse cluster.
        for fine_label in set(fine):
            members = [i for i, l in enumerate(fine) if l == fine_label]
            assert len({coarse[i] for i in members}) == 1

    def test_average_linkage_heights_monotone(self, rng):
        d = random_distance_matrix(rng, 9)
        hc = HierarchicalClustering(d)
        heights = [merge.height for merge in hc.merges]
        assert all(a <= b + 1e-9 for a, b in zip(heights, heights[1:]))

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    def test_matches_scipy(self, rng):
        for _ in range(5):
            d = random_distance_matrix(rng, 8)
            hc = HierarchicalClustering(d)
            z = scipy_linkage(squareform(d, checks=False), method="average")
            for k in (2, 3, 4):
                mine = hc.cuts([k])[k]
                scipys = fcluster(z, t=k, criterion="maxclust")
                # Compare partitions up to relabeling.
                mapping = {}
                consistent = True
                for a, b in zip(mine, scipys):
                    if a in mapping and mapping[a] != b:
                        consistent = False
                        break
                    mapping[a] = b
                assert consistent, f"partitions differ at k={k}"


class TestClustersAsLists:
    def test_groups_by_label(self):
        assert clusters_as_lists([0, 1, 0, 2]) == [[0, 2], [1], [3]]

    def test_empty(self):
        assert clusters_as_lists([]) == []


class TestIncrementalCuts:
    """cuts() replays the merges once; every cut must equal a scratch cut."""

    @staticmethod
    def _reference_cut(clustering, n_clusters):
        """Independent per-k union-find replay (the pre-incremental algorithm)."""
        n = clustering.n_items
        parent = list(range(n + len(clustering.merges)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for step, merge in enumerate(clustering.merges[: n - n_clusters]):
            parent[find(merge.left)] = n + step
            parent[find(merge.right)] = n + step
        roots = [find(i) for i in range(n)]
        relabel, labels = {}, []
        for root in roots:
            if root not in relabel:
                relabel[root] = len(relabel)
            labels.append(relabel[root])
        return labels

    def test_cuts_match_reference_for_every_k(self, rng):
        d = random_distance_matrix(rng, 12)
        hc = HierarchicalClustering(d)
        sweep = hc.cuts(range(1, 13))
        for k in range(1, 13):
            assert sweep[k] == self._reference_cut(hc, k), f"k={k}"

    def test_cut_uses_cache(self, rng):
        d = random_distance_matrix(rng, 8)
        hc = HierarchicalClustering(d)
        first = hc.cuts([3])[3]
        assert 3 in hc._cut_cache
        second = hc.cuts([3])[3]
        assert second == first
        assert second is not first  # callers get a private copy

    def test_cuts_returns_copies(self, rng):
        d = random_distance_matrix(rng, 6)
        hc = HierarchicalClustering(d)
        labels = hc.cuts([2])[2]
        labels[0] = 99
        assert hc.cuts([2])[2][0] != 99

    def test_cuts_validates_range(self, rng):
        d = random_distance_matrix(rng, 5)
        hc = HierarchicalClustering(d)
        with pytest.raises(ValueError):
            hc.cuts([0])
        with pytest.raises(ValueError):
            hc.cuts([6])

    def test_singleton_cut(self):
        hc = HierarchicalClustering(np.zeros((1, 1)))
        assert hc.cuts([1])[1] == [0]
