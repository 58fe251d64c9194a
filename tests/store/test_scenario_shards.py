"""Scenario-keyed shard stores and store artifacts.

Pins the collision-safety contract of the scenario engine: the spec's
fingerprint rides through shard metas, manifests, memory-mapped views and
``box_fingerprint``, so two scenarios sharing a fleet seed never share
artifacts — while legacy (identity) stores keep their exact bytes.
"""

import json

import numpy as np
import pytest

from repro.core.stages import box_fingerprint
from repro.store.shards import (
    ShardManifest,
    generate_fleet_shards,
    load_fleet_shards,
    open_box,
    write_fleet_shards,
)
from repro.trace import (
    NAMED_SCENARIOS,
    FleetConfig,
    generate_fleet,
    render_fleet,
)
from repro.trace.model import FORBID_GENERATION_ENV_VAR
from tests.store.shard_oracle import materialize

SMALL = FleetConfig(n_boxes=3, days=2, seed=7)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(FORBID_GENERATION_ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


class TestManifestCompat:
    def test_identity_store_manifest_has_no_scenario_keys(self, tmp_path):
        generate_fleet_shards(SMALL, tmp_path, name="legacy")
        raw = json.loads((tmp_path / "manifest.json").read_text())
        assert "scenario" not in raw
        assert all("scenario_fp" not in meta for meta in raw["boxes"])

    def test_identity_spec_store_is_byte_identical_to_legacy(self, tmp_path):
        legacy_root = tmp_path / "legacy"
        spec_root = tmp_path / "spec"
        generate_fleet_shards(SMALL, legacy_root, name="s")
        generate_fleet_shards(
            SMALL, spec_root, name="s", scenario=NAMED_SCENARIOS["paper-fig2"]
        )
        assert (legacy_root / "manifest.json").read_text() == (
            spec_root / "manifest.json"
        ).read_text()

    def test_legacy_manifest_round_trips_unchanged(self, tmp_path):
        generate_fleet_shards(SMALL, tmp_path, name="legacy")
        before = (tmp_path / "manifest.json").read_text()
        ShardManifest.load(tmp_path).save(tmp_path)
        assert (tmp_path / "manifest.json").read_text() == before

    def test_scenario_store_records_provenance(self, tmp_path):
        spec = NAMED_SCENARIOS["spiky"]
        manifest = generate_fleet_shards(SMALL, tmp_path, name="s", scenario=spec)
        assert manifest.scenario == {
            "name": "spiky",
            "fingerprint": spec.fingerprint(),
        }
        loaded = load_fleet_shards(tmp_path)
        assert loaded.scenario == manifest.scenario
        assert all(
            meta.scenario_fp == spec.fingerprint()
            for meta in loaded.manifest.boxes
        )


class TestScenarioViews:
    def test_mapped_views_carry_scenario_fp(self, tmp_path):
        spec = NAMED_SCENARIOS["spiky"]
        manifest = generate_fleet_shards(SMALL, tmp_path, name="s", scenario=spec)
        box = open_box(tmp_path, manifest.boxes[0])
        assert box.scenario_fp == spec.fingerprint()

    def test_materialize_propagates_scenario_fp(self, tmp_path):
        spec = NAMED_SCENARIOS["spiky"]
        generate_fleet_shards(SMALL, tmp_path, name="s", scenario=spec)
        fleet = materialize(load_fleet_shards(tmp_path))
        assert fleet.scenario_fp == spec.fingerprint()
        assert all(b.scenario_fp == spec.fingerprint() for b in fleet.boxes)

    def test_store_matches_direct_render(self, tmp_path):
        spec = NAMED_SCENARIOS["mixed"]
        generate_fleet_shards(SMALL, tmp_path, name="s", scenario=spec)
        direct = render_fleet(spec, SMALL)
        for rendered, view in zip(direct.boxes, load_fleet_shards(tmp_path)):
            np.testing.assert_array_equal(
                view.usage_matrix(), rendered.usage_matrix()
            )

    def test_write_fleet_shards_records_box_scenario_fp(self, tmp_path):
        spec = NAMED_SCENARIOS["ramp"]
        fleet = render_fleet(spec, SMALL)
        manifest = write_fleet_shards(fleet, tmp_path)
        assert all(
            meta.scenario_fp == spec.fingerprint() for meta in manifest.boxes
        )


class TestArtifactCollisionSafety:
    def test_scenarios_sharing_a_seed_never_share_box_fingerprints(self):
        identity = generate_fleet(SMALL)
        spiky = render_fleet(NAMED_SCENARIOS["spiky"], SMALL)
        ramp = render_fleet(NAMED_SCENARIOS["ramp"], SMALL)
        fps = set()
        for fleet in (identity, spiky, ramp):
            for box in fleet.boxes:
                fps.add(box_fingerprint(box))
        assert len(fps) == 3 * SMALL.n_boxes

    def test_same_data_different_scenario_fp_changes_fingerprint(self):
        """Even byte-identical traces must key separately per scenario."""
        a = generate_fleet(SMALL).boxes[0]
        b = generate_fleet(SMALL).boxes[0]
        assert box_fingerprint(a) == box_fingerprint(b)
        b.scenario_fp = "deadbeef"
        assert box_fingerprint(a) != box_fingerprint(b)

    def test_legacy_fingerprint_unchanged_by_scenario_field(self):
        """A None scenario_fp hashes exactly as the pre-scenario payload:
        the field's presence alone must not move legacy artifact keys."""
        box = generate_fleet(SMALL).boxes[0]
        fp_with_field = box_fingerprint(box)
        del box.__dict__["scenario_fp"]  # simulate a pre-refactor BoxTrace
        assert box_fingerprint(box) == fp_with_field
