"""Whole-fleet load of a shard store: the in-RAM oracle of the shard tests.

No production path holds a sharded fleet in RAM — workers map one box at
a time — so this copy-out lives with the tests that compare the shard
tier against the in-RAM reference path and pin the materialization guard.
"""

from dataclasses import replace

import numpy as np

from repro.store.shards import ShardedFleet, open_box
from repro.trace.model import FleetTrace, mark_shard_tier_active


def materialize(sharded: ShardedFleet) -> FleetTrace:
    """Load every box of ``sharded`` into RAM as a plain :class:`FleetTrace`.

    Guarded: with ``REPRO_FORBID_FLEET_GENERATION`` set this raises — a
    process on the shard path (the flag any ``open_box`` sets) must never
    hold the whole fleet.
    """
    mark_shard_tier_active()
    boxes = []
    for meta in sharded.manifest.boxes:
        view = open_box(sharded.root, meta)
        # Deep-copy out of the mapping: a materialized fleet must not keep
        # file handles alive behind the caller's back.
        boxes.append(replace(view, usage=np.array(view.usage, dtype=float)))
    fleet_fp = None
    if sharded.manifest.scenario is not None:
        fleet_fp = sharded.manifest.scenario.get("fingerprint")
    return FleetTrace(boxes=boxes, name=sharded.name, scenario_fp=fleet_fp)
