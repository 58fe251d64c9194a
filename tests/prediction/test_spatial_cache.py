"""Tests for the signature-search cache: the store's ``"spatial"`` stage.

The disk tier (``REPRO_STORE``) is the only cache; without it every
search is computed.
"""

import numpy as np
import pytest

from repro import obs
from repro.prediction.spatial.signatures import (
    ClusteringMethod,
    SignatureSearchConfig,
    search_signature_set,
)
from repro.prediction.spatial import signatures
from repro.store import ArtifactKey, config_fingerprint, data_fingerprint, get_codec


@pytest.fixture(autouse=True)
def counters(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    obs.reset_metrics()
    yield lambda: obs.metrics_snapshot()["counters"]
    obs.reset_metrics()


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    return tmp_path


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


class TestSearchMemoization:
    def test_no_in_process_cache(self, counters):
        """Without a store, an identical second search is computed again."""
        data = _matrix()
        config = SignatureSearchConfig(method=ClusteringMethod.DTW, max_clusters=3)
        search_signature_set(data, config)
        search_signature_set(data.copy(), config)
        assert counters().get("spatial.search.computed") == 2

    def test_second_search_hits(self, store_env, counters):
        """With a store, the second search is served from disk."""
        data = _matrix()
        config = SignatureSearchConfig(method=ClusteringMethod.DTW, max_clusters=3)
        search_signature_set(data, config)
        search_signature_set(data.copy(), config)
        assert counters().get("spatial.search.computed") == 1
        assert counters().get("store.spatial.hit_disk") == 1

    def test_different_config_misses(self, store_env, counters):
        data = _matrix()
        search_signature_set(data, SignatureSearchConfig(method=ClusteringMethod.CBC))
        search_signature_set(
            data, SignatureSearchConfig(method=ClusteringMethod.CBC, vif_threshold=10.0)
        )
        assert counters().get("spatial.search.computed") == 2
        assert counters().get("store.spatial.hit_disk", 0) == 0

    def test_different_data_misses(self, store_env, counters):
        config = SignatureSearchConfig(method=ClusteringMethod.CBC)
        search_signature_set(_matrix(seed=1), config)
        search_signature_set(_matrix(seed=2), config)
        assert counters().get("spatial.search.computed") == 2

    def test_cached_model_equivalent(self, store_env, monkeypatch):
        """A hit returns the same numbers a fresh search would compute."""
        data = _matrix()
        config = SignatureSearchConfig(method=ClusteringMethod.DTW, max_clusters=3)
        search_signature_set(data, config)
        cached = search_signature_set(data, config)
        monkeypatch.delenv("REPRO_STORE")
        fresh = search_signature_set(data, config)
        assert fresh.signature_indices == cached.signature_indices
        assert fresh.dependent_indices == cached.dependent_indices
        np.testing.assert_array_equal(fresh.fitted(data), cached.fitted(data))

    def test_no_store_builds_no_key(self, tmp_path, monkeypatch):
        """Without a store the search hashes nothing, and fits the same model."""
        data = _matrix()
        config = SignatureSearchConfig(method=ClusteringMethod.CBC)
        hashed = []

        def counting(arr):
            hashed.append(arr.shape)
            return data_fingerprint(arr)

        monkeypatch.setattr(signatures, "data_fingerprint", counting)
        fresh = search_signature_set(data, config)
        assert hashed == []
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        stored = search_signature_set(data, config)
        assert hashed == [data.shape]
        encode = get_codec(signatures.SPATIAL_STAGE).encode
        (fresh_arrays, fresh_meta), (stored_arrays, stored_meta) = encode(fresh), encode(stored)
        assert fresh_meta == stored_meta
        assert sorted(fresh_arrays) == sorted(stored_arrays)
        for name, arr in fresh_arrays.items():
            assert arr.tobytes() == stored_arrays[name].tobytes(), name

    def test_given_key_is_the_one_stored(self, store_env, counters, monkeypatch):
        """A caller's key (a fleet chunk's) is used as given, not rebuilt."""
        data = _matrix()
        config = SignatureSearchConfig(method=ClusteringMethod.CBC)
        key = ArtifactKey(
            signatures.SPATIAL_STAGE, data_fingerprint(data), config_fingerprint(config)
        )
        monkeypatch.setattr(signatures, "data_fingerprint", None)  # must not be called
        search_signature_set(data, config, key=key)
        search_signature_set(data, config, key=key)
        assert counters().get("spatial.search.computed") == 1
        assert [p.stem for p in (store_env / "spatial").glob("*/*.npz")] == [key.digest()]
