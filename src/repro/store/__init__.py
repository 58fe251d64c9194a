"""repro.store — a content-addressed artifact store on disk.

The staged ATM pipeline (see :mod:`repro.core.stages`) materializes each
stage's output as an *artifact* addressed by ``(stage, data fingerprint,
config fingerprint, schema version)``.  This package provides:

* :mod:`repro.store.fingerprint` — BLAKE2b content/config fingerprints and
  the ``repro.store/v1`` schema tag.
* :mod:`repro.store.codecs` — per-stage serializers to named arrays plus
  JSON meta.
* :mod:`repro.store.artifacts` — :class:`ArtifactStore`, get/put on the
  persistent disk tier (``REPRO_STORE`` / ``--store``; disabled when
  unset) in the store's own flat container (magic, JSON header, 64-byte
  aligned raw arrays, read back as ``np.frombuffer`` views), atomic writes
  (the container built in memory, written once to a ``.tmp-*`` sibling,
  then ``os.replace``), and stale/corrupt rejection.
* :mod:`repro.store.shards` — memory-mapped per-box trace shards
  (``.npy`` files, header-checked and mapped once) with a JSON manifest:
  the fleet-scale trace tier whose mappings pool workers open instead of
  receiving pickled traces.

The disk tier is the only cache, and it survives process boundaries:
pool workers write artifacts their siblings and *later runs* can hit,
interrupted fleet runs resume from the boxes already materialized, and
ablation sweeps re-fit nothing spatial.  Without ``REPRO_STORE`` every
stage computes its value.
"""

from repro.store.artifacts import (
    CONTAINER_MAGIC,
    STORE_ENV_VAR,
    ArtifactKey,
    ArtifactStore,
    default_store,
)
from repro.store.codecs import Codec, get_codec, register_codec, registered_stages
from repro.store.fingerprint import (
    STORE_SCHEMA,
    canonical,
    config_fingerprint,
    data_fingerprint,
)
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
    "CONTAINER_MAGIC",
    "SHARDS_SCHEMA",
    "STORE_ENV_VAR",
    "STORE_SCHEMA",
    "ArtifactKey",
    "ArtifactStore",
    "BoxShardMeta",
    "BoxShardRef",
    "Codec",
    "ShardManifest",
    "ShardedFleet",
    "canonical",
    "config_fingerprint",
    "data_fingerprint",
    "default_store",
    "generate_fleet_shards",
    "get_codec",
    "load_fleet_shards",
    "register_codec",
    "registered_stages",
    "resolve_box",
    "write_fleet_shards",
]
