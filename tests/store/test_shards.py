"""Memory-mapped shard store: round-trip, manifest, refs, and the guard."""

import io
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.store.fingerprint import data_fingerprint
from repro.store.shards import (
    SHARDS_SCHEMA,
    BoxShardRef,
    ShardedFleet,
    ShardManifest,
    generate_fleet_shards,
    load_fleet_shards,
    open_box,
    resolve_box,
    write_box_shard,
    write_fleet_shards,
)
from repro.trace import NAMED_SCENARIOS, model, render_fleet
from repro.trace.generator import FleetConfig, generate_fleet
from repro.trace.model import FORBID_GENERATION_ENV_VAR, BoxTrace, FleetTrace
from tests.store.shard_oracle import materialize


@pytest.fixture(autouse=True)
def _fresh_shard_tier():
    """Isolate the process-wide "shard tier active" marker per test."""
    model._SHARD_TIER_ACTIVE = False
    yield
    model._SHARD_TIER_ACTIVE = False


@pytest.fixture()
def store(tmp_path, small_fleet):
    root = tmp_path / "shards"
    manifest = write_fleet_shards(small_fleet, root)
    return root, manifest


class TestRoundTrip:
    def test_views_bit_identical_to_source(self, store, small_fleet):
        root, _ = store
        sharded = load_fleet_shards(root)
        assert sharded.n_boxes == small_fleet.n_boxes
        for original, view in zip(small_fleet, sharded):
            assert view.box_id == original.box_id
            assert view.cpu_capacity == original.cpu_capacity
            assert view.ram_capacity == original.ram_capacity
            assert view.interval_minutes == original.interval_minutes
            assert view.usage.tobytes() == original.usage.tobytes()
            assert view.vm_ids == original.vm_ids
            assert view.vm_cpu_capacities == original.vm_cpu_capacities
            assert view.vm_ram_capacities == original.vm_ram_capacities

    def test_views_are_readonly_mappings(self, store):
        root, manifest = store
        view = open_box(root, manifest.boxes[0])
        with pytest.raises((ValueError, RuntimeError)):
            view.usage[0, 0] = 1.0

    def test_materialize_equals_source(self, store, small_fleet):
        root, _ = store
        materialized = materialize(load_fleet_shards(root))
        assert isinstance(materialized, FleetTrace)
        assert materialized.name == small_fleet.name
        for original, loaded in zip(small_fleet, materialized):
            np.testing.assert_array_equal(
                loaded.usage_matrix(), original.usage_matrix()
            )

    def test_shard_fleet_csv(self, tmp_path, small_fleet):
        from repro.trace import save_fleet_csv, shard_fleet_csv

        csv_path = tmp_path / "fleet.csv"
        save_fleet_csv(small_fleet, csv_path)
        sharded = shard_fleet_csv(csv_path, tmp_path / "from-csv")
        box = next(iter(sharded))
        source = small_fleet.boxes[0]
        np.testing.assert_allclose(
            box.usage_matrix(), source.usage_matrix(), atol=1e-4
        )


class TestManifest:
    def test_schema_and_counts(self, store, small_fleet):
        root, manifest = store
        assert manifest.schema == SHARDS_SCHEMA
        assert manifest.n_boxes == small_fleet.n_boxes
        assert manifest.n_vms == small_fleet.n_vms
        assert manifest.total_bytes == sum(
            box.usage_matrix().nbytes for box in small_fleet
        )
        reloaded = ShardManifest.load(root)
        assert reloaded.boxes == manifest.boxes

    def test_rejects_foreign_schema(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"schema": "bogus/v9", "boxes": []}')
        with pytest.raises(ValueError, match="schema"):
            ShardManifest.load(tmp_path)

    def test_shape_mismatch_raises(self, store):
        import dataclasses

        root, manifest = store
        meta = dataclasses.replace(manifest.boxes[0], n_windows=7)
        with pytest.raises(ValueError, match="does not match"):
            open_box(root, meta)

    def test_verify_catches_tampering(self, store):
        root, manifest = store
        meta = manifest.boxes[0]
        assert data_fingerprint(open_box(root, meta).usage) == meta.fingerprint
        matrix = np.load(root / meta.path)
        matrix[0, 0] += 1.0
        np.save(root / meta.path, matrix)
        assert data_fingerprint(open_box(root, meta).usage) != meta.fingerprint


class TestContentAddressing:
    def test_rewrite_is_idempotent(self, tmp_path, small_fleet):
        root = tmp_path / "shards"
        obs.reset_metrics()
        write_fleet_shards(small_fleet, root)
        first = obs.metrics_snapshot()["counters"]["shards.writes"]
        assert first == small_fleet.n_boxes
        write_fleet_shards(small_fleet, root)
        again = obs.metrics_snapshot()["counters"]["shards.writes"]
        assert again == first  # no shard rewritten

    def test_identical_boxes_share_a_shard(self, tmp_path, small_fleet):
        box = small_fleet.boxes[0]
        a = write_box_shard(box, tmp_path)
        b = write_box_shard(box, tmp_path)
        assert a.fingerprint == b.fingerprint
        assert a.path == b.path


def _random_box(m: int, n: int) -> BoxTrace:
    usage = np.random.default_rng(m * 1000 + n).uniform(0.0, 100.0, size=(2 * m, n))
    vm_ids = tuple(f"vm{i}" for i in range(m))
    return BoxTrace(f"box-{m}x{n}", 10.0, 10.0, vm_ids, (1.0,) * m, (1.0,) * m, usage)


class TestNpyLayout:
    """A shard is exactly the file ``np.save`` writes for the box's matrix."""

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 5), (3, 96), (5, 672), (60, 7), (600, 2)])
    def test_shard_bytes_are_what_np_save_writes(self, tmp_path, m, n):
        box = _random_box(m, n)
        meta = write_box_shard(box, tmp_path)
        oracle = io.BytesIO()
        np.save(oracle, np.ascontiguousarray(box.usage, dtype=np.float64))
        assert (tmp_path / meta.path).read_bytes() == oracle.getvalue()
        assert meta.fingerprint == data_fingerprint(box.usage)
        assert open_box(tmp_path, meta).usage.tobytes() == box.usage.tobytes()

    def test_header_is_what_np_save_writes_for_every_width(self):
        from repro.store.shards import _npy_header

        for rows in (2, 10, 1998, 10**6):
            for digits in range(1, 20):
                cols = 10 ** (digits - 1) + 7
                oracle = io.BytesIO()
                np.lib.format.write_array_header_1_0(
                    oracle, {"descr": "<f8", "fortran_order": False, "shape": (rows, cols)}
                )
                assert _npy_header(rows, cols) == oracle.getvalue(), (rows, cols)

    @pytest.mark.parametrize("damage", ["float32", "fortran order", "truncated", "empty"])
    def test_shard_that_is_not_the_manifest_matrix_raises(self, tmp_path, damage):
        box = _random_box(2, 6)
        meta = write_box_shard(box, tmp_path)
        path = tmp_path / meta.path
        if damage == "float32":
            np.save(path, box.usage.astype(np.float32))
        elif damage == "fortran order":
            np.save(path, np.asfortranarray(box.usage))
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        else:
            path.write_bytes(b"")
        with pytest.raises(ValueError, match="does not match"):
            open_box(tmp_path, meta)


class TestRefs:
    def test_ref_is_tiny_and_resolvable(self, store):
        root, _ = store
        sharded = ShardedFleet(root)
        refs = sharded.box_refs()
        payload = pickle.dumps(refs[0])
        assert len(payload) < 2048  # descriptors, not data
        box = refs[0].resolve()
        assert box.box_id == refs[0].box_id
        assert box.n_windows == refs[0].n_windows

    def test_resolve_box_passthrough(self, store, small_fleet):
        root, _ = store
        ref = ShardedFleet(root).box_refs()[0]
        assert resolve_box(ref).box_id == ref.box_id
        box = small_fleet.boxes[0]
        assert resolve_box(box) is box

    def test_sharded_fleet_api(self, store, small_fleet):
        root, _ = store
        sharded = load_fleet_shards(root)
        assert len(sharded) == small_fleet.n_boxes
        assert sharded.n_series == 2 * small_fleet.n_vms
        target = small_fleet.boxes[2].box_id
        assert sharded.box_by_id(target).box_id == target
        with pytest.raises(KeyError):
            sharded.box_by_id("nope")
        assert sharded.n_vms == small_fleet.n_vms


class TestObservability:
    def test_open_counts_bytes_mapped(self, store):
        root, manifest = store
        obs.reset_metrics()
        open_box(root, manifest.boxes[0])
        snap = obs.metrics_snapshot()
        assert snap["counters"]["shards.boxes_opened"] == 1
        assert snap["counters"]["shards.bytes_mapped"] == manifest.boxes[0].nbytes
        assert snap["gauges"]["shards.max_box_bytes"] == manifest.boxes[0].nbytes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_generation_records_one_span(self, tmp_path, jobs):
        """Serial and pool generation both run under one shards.generate span."""
        obs.reset_metrics()
        try:
            generate_fleet_shards(
                FleetConfig(n_boxes=6, days=1, seed=3), tmp_path, jobs=jobs
            )
            spans = obs.metrics_snapshot()["spans"]
        finally:
            obs.reset_metrics()
        assert spans["shards.generate"]["count"] == 1
        assert "trace.render" not in spans

    def test_render_fleet_records_one_span(self):
        obs.reset_metrics()
        try:
            render_fleet(NAMED_SCENARIOS["regime-shift"], FleetConfig(n_boxes=3, days=1, seed=3))
            spans = obs.metrics_snapshot()["spans"]
        finally:
            obs.reset_metrics()
        assert spans["trace.render"]["count"] == 1


class TestMaterializationGuard:
    """Satellite: the forbid-generation guard also forbids full-fleet
    materialization once the shard tier is active in a process."""

    def test_fleettrace_raises_when_tier_active_and_guarded(
        self, store, small_fleet, monkeypatch
    ):
        root, manifest = store
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        # Guard alone does not trip: in-RAM fleets stay constructible.
        FleetTrace(boxes=[small_fleet.boxes[0]], name="ok")
        open_box(root, manifest.boxes[0])  # activates the shard tier
        assert model.shard_tier_active()
        with pytest.raises(RuntimeError, match="materialization is forbidden"):
            FleetTrace(boxes=[small_fleet.boxes[0]], name="bad")
        with pytest.raises(RuntimeError, match="materialization is forbidden"):
            materialize(load_fleet_shards(root))

    def test_falsy_spelling_allows_materialization(
        self, store, small_fleet, monkeypatch
    ):
        """``false`` turns the guard off, as for every ``REPRO_*`` gate."""
        root, manifest = store
        open_box(root, manifest.boxes[0])  # activates the shard tier
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "false")
        fleet = materialize(load_fleet_shards(root))
        assert fleet.n_boxes == small_fleet.n_boxes
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        with pytest.raises(RuntimeError, match="materialization is forbidden"):
            materialize(load_fleet_shards(root))

    def test_guard_off_without_env(self, store, small_fleet, monkeypatch):
        root, _ = store
        monkeypatch.delenv(FORBID_GENERATION_ENV_VAR, raising=False)
        fleet = materialize(load_fleet_shards(root))
        assert fleet.n_boxes == small_fleet.n_boxes


class TestGenerateIntoShards:
    def test_streamed_generation_matches_generate_fleet(self, tmp_path):
        cfg = FleetConfig(n_boxes=3, days=1, seed=31)
        manifest = generate_fleet_shards(cfg, tmp_path / "gen", name="synthetic")
        reference = generate_fleet(cfg, name="synthetic")
        sharded = load_fleet_shards(tmp_path / "gen")
        assert manifest.n_boxes == reference.n_boxes
        for original, view in zip(reference, sharded):
            np.testing.assert_array_equal(
                view.usage_matrix(), original.usage_matrix()
            )

    def test_generation_guard_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        with pytest.raises(RuntimeError, match="forbidden"):
            generate_fleet_shards(FleetConfig(n_boxes=1, days=1, seed=1), tmp_path)


class TestParallelGeneration:
    """Satellite: ``generate_fleet_shards(jobs=N)`` is byte-identical to
    serial generation — same shards, same manifest, any worker count."""

    @staticmethod
    def _tree_digest(root):
        import hashlib
        from pathlib import Path

        h = hashlib.blake2b()
        for path in sorted(Path(root).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def test_parallel_store_byte_identical_to_serial(self, tmp_path):
        cfg = FleetConfig(n_boxes=5, days=1, seed=42)
        serial = generate_fleet_shards(cfg, tmp_path / "serial", jobs=1)
        parallel = generate_fleet_shards(cfg, tmp_path / "parallel", jobs=2)
        assert parallel.boxes == serial.boxes
        assert self._tree_digest(tmp_path / "serial") == self._tree_digest(
            tmp_path / "parallel"
        )

    def test_parallel_views_match_generate_fleet(self, tmp_path):
        cfg = FleetConfig(n_boxes=4, days=1, seed=43)
        generate_fleet_shards(cfg, tmp_path / "gen", jobs=2)
        reference = generate_fleet(cfg)
        for original, view in zip(reference, load_fleet_shards(tmp_path / "gen")):
            assert view.box_id == original.box_id
            np.testing.assert_array_equal(
                view.usage_matrix(), original.usage_matrix()
            )

    def test_generation_guard_applies_with_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        with pytest.raises(RuntimeError, match="forbidden"):
            generate_fleet_shards(
                FleetConfig(n_boxes=2, days=1, seed=1), tmp_path, jobs=2
            )


class TestBoundedGeneration:
    """Generation holds one render block at a time, never the fleet: the
    contract ``peak_rss_mb`` and ``bench_fleet_scale``'s RSS-growth bound
    rely on."""

    @staticmethod
    def _traced_peak(root, n_boxes):
        tracemalloc.start()
        try:
            generate_fleet_shards(FleetConfig(n_boxes=n_boxes, seed=17), root, jobs=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_flat_in_fleet_size(self, tmp_path):
        small = self._traced_peak(tmp_path / "small", 16)
        large = self._traced_peak(tmp_path / "large", 128)
        assert large < 1.5 * small, (small, large)
