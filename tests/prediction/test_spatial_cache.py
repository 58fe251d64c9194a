"""Tests for the signature-search memo: the store's ``"spatial"`` memory tier."""

import numpy as np
import pytest

from repro.prediction.spatial.signatures import (
    ClusteringMethod,
    SignatureSearchConfig,
    search_signature_set,
)
from repro.store import LruCache, data_fingerprint, memory_tier

SPATIAL_TIER = memory_tier("spatial")


@pytest.fixture(autouse=True)
def fresh_cache():
    SPATIAL_TIER.clear()
    yield
    SPATIAL_TIER.clear()


def _matrix(seed=0, n=6, t=200):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=t)
    return np.vstack([base * (i % 3 + 1) + rng.normal(scale=0.3, size=t) for i in range(n)])


class TestFingerprint:
    def test_deterministic(self):
        data = _matrix()
        assert data_fingerprint(data) == data_fingerprint(data.copy())

    def test_content_sensitive(self):
        data = _matrix()
        other = data.copy()
        other[0, 0] += 1e-9
        assert data_fingerprint(data) != data_fingerprint(other)

    def test_shape_sensitive(self):
        flat = np.zeros(12)
        assert data_fingerprint(flat.reshape(3, 4)) != data_fingerprint(
            flat.reshape(4, 3)
        )


class TestLru:
    def test_put_get_and_stats(self):
        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_order(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_clear_resets(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)


class TestSearchMemoization:
    def test_second_search_hits(self):
        data = _matrix()
        config = SignatureSearchConfig(method=ClusteringMethod.DTW, max_clusters=3)
        first = search_signature_set(data, config)
        second = search_signature_set(data.copy(), config)
        assert second is first  # memoized model object
        assert SPATIAL_TIER.stats.hits == 1

    def test_different_config_misses(self):
        data = _matrix()
        a = search_signature_set(data, SignatureSearchConfig(method=ClusteringMethod.CBC))
        b = search_signature_set(
            data, SignatureSearchConfig(method=ClusteringMethod.CBC, vif_threshold=10.0)
        )
        assert a is not b
        assert SPATIAL_TIER.stats.hits == 0

    def test_different_data_misses(self):
        config = SignatureSearchConfig(method=ClusteringMethod.CBC)
        a = search_signature_set(_matrix(seed=1), config)
        b = search_signature_set(_matrix(seed=2), config)
        assert a is not b

    def test_cached_model_equivalent(self):
        """A hit returns the same numbers a fresh search would compute."""
        data = _matrix()
        config = SignatureSearchConfig(method=ClusteringMethod.DTW, max_clusters=3)
        cached = search_signature_set(data, config)
        SPATIAL_TIER.clear()
        fresh = search_signature_set(data, config)
        assert fresh.signature_indices == cached.signature_indices
        assert fresh.dependent_indices == cached.dependent_indices
        np.testing.assert_array_equal(fresh.fitted(data), cached.fitted(data))
