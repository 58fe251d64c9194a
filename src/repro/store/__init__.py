"""repro.store — a two-tier content-addressed artifact store.

The staged ATM pipeline (see :mod:`repro.core.stages`) materializes each
stage's output as an *artifact* addressed by ``(stage, data fingerprint,
config fingerprint, schema version)``.  This package provides:

* :mod:`repro.store.fingerprint` — BLAKE2b content/config fingerprints and
  the ``repro.store/v1`` schema tag.
* :mod:`repro.store.lru` — the in-process memory tier (tier 1), the
  thread-safe bounded LRU the signature cache has always used.
* :mod:`repro.store.codecs` — per-stage ``npz + JSON`` serializers.
* :mod:`repro.store.artifacts` — :class:`ArtifactStore`, the two-tier
  get/put with an optional persistent disk tier (``REPRO_STORE`` /
  ``--store``), atomic writes, and stale/corrupt rejection.
* :mod:`repro.store.shards` — memory-mapped per-box trace shards with a
  JSON manifest: the fleet-scale trace tier pool workers open
  ``np.memmap`` slices of instead of receiving pickled traces.

The disk tier is what survives process boundaries: pool workers write
artifacts their siblings and *later runs* can hit (fixing the historical
worker-local cache-entry loss), interrupted fleet runs resume from the
boxes already materialized, and ablation sweeps re-fit nothing spatial.
"""

from repro.store.artifacts import (
    STORE_ENV_VAR,
    ArtifactKey,
    ArtifactStore,
    clear_memory_tiers,
    default_store,
    memory_tier,
)
from repro.store.codecs import Codec, get_codec, register_codec, registered_stages
from repro.store.fingerprint import (
    STORE_SCHEMA,
    canonical,
    config_fingerprint,
    data_fingerprint,
)
from repro.store.lru import DEFAULT_MAXSIZE, CacheStats, LruCache
from repro.store.shards import (
    SHARDS_SCHEMA,
    BoxShardMeta,
    BoxShardRef,
    ShardedFleet,
    ShardManifest,
    generate_fleet_shards,
    load_fleet_shards,
    resolve_box,
    write_fleet_shards,
)

__all__ = [
    "DEFAULT_MAXSIZE",
    "SHARDS_SCHEMA",
    "STORE_ENV_VAR",
    "STORE_SCHEMA",
    "ArtifactKey",
    "ArtifactStore",
    "BoxShardMeta",
    "BoxShardRef",
    "CacheStats",
    "Codec",
    "LruCache",
    "ShardManifest",
    "ShardedFleet",
    "canonical",
    "clear_memory_tiers",
    "config_fingerprint",
    "data_fingerprint",
    "default_store",
    "generate_fleet_shards",
    "get_codec",
    "load_fleet_shards",
    "memory_tier",
    "register_codec",
    "registered_stages",
    "resolve_box",
    "write_fleet_shards",
]
