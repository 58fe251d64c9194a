"""Scenario engine: truth/render split, identity pin, regime splices."""

import hashlib
import json

import numpy as np
import pytest

from repro.store.shards import generate_fleet_shards
from repro.trace import (
    ARCHETYPES,
    NAMED_SCENARIOS,
    CohortSpec,
    FleetConfig,
    FleetTrace,
    RegimeShift,
    RenderSpec,
    ScenarioSpec,
    generate_fleet,
    render_box,
    render_fleet,
    resolve_scenario,
)
from repro.trace.model import FORBID_GENERATION_ENV_VAR, Resource
from repro.trace.scenario import (
    PAPER_ARCHETYPE,
    _cohort_of,
    _switch_window,
)
from tests.trace import generator_oracle as oracle

SMALL = FleetConfig(n_boxes=4, days=2, seed=20160628)

#: Fleet digest of the calibrated profile at SMALL — the bit-identity pin:
#: neither the scenario engine nor the block renderer may change what the
#: per-box generator (now the test oracle) produces for the default
#: ``paper-fig2`` scenario.
PAPER_FIG2_DIGEST = "cf28e23545b78942cf8193e4153439bca60a883a"


def _fleet_digest(fleet) -> str:
    h = hashlib.blake2b(digest_size=20)
    for box in fleet.boxes:
        h.update(box.box_id.encode())
        h.update(np.ascontiguousarray(box.usage_matrix(), dtype=np.float64).tobytes())
        h.update(np.float64(box.cpu_capacity).tobytes())
        h.update(np.float64(box.ram_capacity).tobytes())
    return h.hexdigest()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(FORBID_GENERATION_ENV_VAR, raising=False)


class TestIdentityPin:
    def test_paper_fig2_is_bit_identical_to_legacy_generator(self):
        legacy = FleetTrace(boxes=oracle.generate_fleet_boxes(SMALL))
        assert _fleet_digest(legacy) == PAPER_FIG2_DIGEST
        assert _fleet_digest(generate_fleet(SMALL)) == PAPER_FIG2_DIGEST
        rendered = render_fleet(NAMED_SCENARIOS[PAPER_ARCHETYPE], SMALL)
        assert _fleet_digest(rendered) == PAPER_FIG2_DIGEST

    def test_identity_spec_leaves_scenario_fp_unset(self):
        fleet = render_fleet(NAMED_SCENARIOS[PAPER_ARCHETYPE], SMALL)
        assert fleet.scenario_fp is None
        assert all(box.scenario_fp is None for box in fleet.boxes)

    def test_generate_fleet_scenario_kwarg_identity(self):
        via_kwarg = generate_fleet(
            SMALL, scenario=NAMED_SCENARIOS[PAPER_ARCHETYPE]
        )
        assert _fleet_digest(via_kwarg) == PAPER_FIG2_DIGEST

    def test_is_identity_property(self):
        assert NAMED_SCENARIOS[PAPER_ARCHETYPE].is_identity
        assert not NAMED_SCENARIOS["spiky"].is_identity
        assert not ScenarioSpec(
            "noisy", render=RenderSpec(noise_scale=2.0)
        ).is_identity


#: A fleet long enough to span several render blocks (about 25 factor rows
#: per box against the block renderer's row budget), so every pin below
#: crosses block boundaries mid-fleet.
SPAN = FleetConfig(n_boxes=40, days=2, seed=20160628)

#: Literal render digests at SPAN for every named scenario, recorded from
#: the per-box generator before the block renderer replaced it.  Archetype
#: overrides, envelopes and the regime-shift splice all feed these bytes.
SCENARIO_DIGESTS = {
    "paper-fig2": "cb885a21a78c79303c94212100f95d84c82a1916",
    "web-diurnal": "768c7e4efb646b9abd15021dddd9306a3c8ce430",
    "batch": "61e3e23d6e3baa6694d8468ed5e163ab393027a6",
    "spiky": "c37ef35f3730829ecd2a109d75cf0861527ae50c",
    "ramp": "3c9504226a5d4d69159fb33ad34eb42f4419ba5d",
    "weekend-heavy": "5b6368bdcec3d13c998e385f1170e7c7a915e5be",
    "mixed": "8673dac6723f5164fb41bd13d63e778499c9eff5",
    "regime-shift": "80766dfba4116398b3559990c5a278a0e9d63a22",
}

#: Store-tree digests (manifest plus every shard file) of a 12-box, 1-day
#: store; the same bytes at any worker count.
STORE_DIGESTS = {
    "paper-fig2": "2f8d38f3b2d5d52728304fb3102c52e7681d090c",
    "regime-shift": "de8f7dc3ae746f1eead8623694b5503dc5a7d9e2",
}


def _tree_digest(root) -> str:
    h = hashlib.blake2b(digest_size=20)
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestLiteralPins:
    """Byte pins of every renderer entry point: changing how the fleet is
    computed must never change what it is."""

    def test_every_named_scenario_matches_its_pin(self):
        assert set(SCENARIO_DIGESTS) == set(NAMED_SCENARIOS)
        for name, spec in NAMED_SCENARIOS.items():
            assert _fleet_digest(render_fleet(spec, SPAN)) == SCENARIO_DIGESTS[name], name

    @pytest.mark.parametrize(
        "cfg,digest",
        [
            (FleetConfig(n_boxes=8, days=1, seed=7), "5d71615bf0b94d245a1743cc3dcf80d646df1e35"),
            (
                FleetConfig(n_boxes=8, days=3, windows_per_day=24, seed=7),
                "feb3214f85166125953598277099ca5f947954c1",
            ),
        ],
        ids=["days1", "wpd24"],
    )
    def test_paper_fig2_geometry_pins(self, cfg, digest):
        assert _fleet_digest(render_fleet(NAMED_SCENARIOS[PAPER_ARCHETYPE], cfg)) == digest

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(STORE_DIGESTS))
    def test_shard_store_tree_pin(self, tmp_path, name, jobs):
        generate_fleet_shards(
            FleetConfig(n_boxes=12, days=1, seed=42),
            tmp_path,
            name="pin",
            jobs=jobs,
            scenario=NAMED_SCENARIOS[name],
        )
        assert _tree_digest(tmp_path) == STORE_DIGESTS[name]


class TestArchetypes:
    def test_every_archetype_renders_valid_traces(self):
        for name in ARCHETYPES:
            fleet = render_fleet(
                ScenarioSpec(name, (CohortSpec(name),)), SMALL
            )
            for box in fleet.boxes:
                matrix = box.usage_matrix()
                assert np.all(np.isfinite(matrix))
                assert matrix.min() >= 0.0
                assert matrix.max() <= 400.0

    def test_non_identity_scenarios_differ_from_paper(self):
        paper = _fleet_digest(generate_fleet(SMALL))
        for name in ARCHETYPES:
            if name == PAPER_ARCHETYPE:
                continue
            fleet = render_fleet(ScenarioSpec(name, (CohortSpec(name),)), SMALL)
            assert _fleet_digest(fleet) != paper, name

    def test_rendering_is_deterministic(self):
        spec = NAMED_SCENARIOS["mixed"]
        assert _fleet_digest(render_fleet(spec, SMALL)) == _fleet_digest(
            render_fleet(spec, SMALL)
        )

    def test_archetype_preserves_vm_identities_and_capacities(self):
        """Overrides + envelopes must not perturb who the VMs are.

        VM ids and VM capacities are drawn before any override-affected
        draw, so every archetype agrees on them; box capacity folds a
        headroom draw made *after* the usage series, so it may differ.
        """
        legacy = oracle.generate_box(1, SMALL)
        for name in ARCHETYPES:
            spec = ScenarioSpec(name, (CohortSpec(name),))
            box = render_box(1, spec, SMALL)
            assert box.vm_ids == legacy.vm_ids
            assert box.vm_cpu_capacities == legacy.vm_cpu_capacities
            assert box.vm_ram_capacities == legacy.vm_ram_capacities


class TestRegimeShift:
    def test_splice_preserves_identity_and_pre_segment(self):
        spec = ScenarioSpec(
            "s",
            (CohortSpec("web-diurnal", shift=RegimeShift("spiky", at_fraction=0.5)),),
        )
        pure_pre = render_box(0, ScenarioSpec("p", (CohortSpec("web-diurnal"),)), SMALL)
        shifted = render_box(0, spec, SMALL)
        switch = _switch_window(SMALL, spec.cohorts[0].shift, 0)
        assert switch == SMALL.n_windows // 2
        assert shifted.vm_ids == pure_pre.vm_ids
        # Before the switch the shifted box IS the pre-archetype box.
        assert np.array_equal(pure_pre.usage[:, :switch], shifted.usage[:, :switch])
        # After it, the workload changed.
        cpu = shifted.rows(Resource.CPU)
        assert not np.array_equal(
            pure_pre.usage[cpu, switch:], shifted.usage[cpu, switch:]
        )

    def test_seeded_switch_window_in_band_and_reproducible(self):
        shift = RegimeShift("spiky")
        w1 = _switch_window(SMALL, shift, 0)
        w2 = _switch_window(SMALL, shift, 0)
        assert w1 == w2
        assert 0.35 * SMALL.n_windows <= w1 <= 0.65 * SMALL.n_windows
        # Different cohorts draw different windows from the same seed.
        other = _switch_window(SMALL, shift, 1)
        assert 1 <= other <= SMALL.n_windows - 1

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError, match="unknown shift archetype"):
            RegimeShift("nope")
        with pytest.raises(ValueError, match="at_fraction"):
            RegimeShift("spiky", at_fraction=1.5)


class TestCohorts:
    def test_striping_covers_fleet_proportionally(self):
        spec = NAMED_SCENARIOS["mixed"]  # weights 2:1:1
        n = 8
        cfg = FleetConfig(n_boxes=n, days=1, seed=1)
        assigned = [_cohort_of(spec, b, n)[1].archetype for b in range(n)]
        assert assigned == (
            ["web-diurnal"] * 4 + ["batch"] * 2 + ["spiky"] * 2
        )
        fleet = render_fleet(spec, cfg)
        assert fleet.n_boxes == n

    def test_out_of_range_box_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            _cohort_of(NAMED_SCENARIOS["mixed"], 99, 8)

    def test_bad_cohort_rejected(self):
        with pytest.raises(ValueError, match="unknown archetype"):
            CohortSpec("nope")
        with pytest.raises(ValueError, match="weight"):
            CohortSpec("spiky", weight=0.0)


class TestFingerprints:
    def test_all_named_scenarios_fingerprint_uniquely(self):
        fps = {name: spec.fingerprint() for name, spec in NAMED_SCENARIOS.items()}
        assert len(set(fps.values())) == len(fps)

    def test_fingerprint_stable_across_json_round_trip(self, tmp_path):
        for spec in NAMED_SCENARIOS.values():
            path = spec.to_json(tmp_path / f"{spec.name}.json")
            assert ScenarioSpec.from_json(path).fingerprint() == spec.fingerprint()

    def test_render_changes_fingerprint(self):
        base = ScenarioSpec("x", (CohortSpec("spiky"),))
        noisy = ScenarioSpec(
            "x", (CohortSpec("spiky"),), render=RenderSpec(noise_scale=2.0)
        )
        assert base.fingerprint() != noisy.fingerprint()


class TestResolveScenario:
    def test_none_defaults_to_identity(self):
        assert resolve_scenario(None).is_identity

    def test_named_and_spec_path(self, tmp_path):
        assert resolve_scenario("mixed") is NAMED_SCENARIOS["mixed"]
        path = NAMED_SCENARIOS["regime-shift"].to_json(tmp_path / "spec.json")
        assert (
            resolve_scenario(str(path)).fingerprint()
            == NAMED_SCENARIOS["regime-shift"].fingerprint()
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="paper-fig2"):
            resolve_scenario("nope")

    def test_missing_spec_file(self):
        with pytest.raises(ValueError, match="not found"):
            resolve_scenario("/no/such/spec.json")


class TestRenderSpec:
    def test_capacity_spread_zero_homogenizes_headroom(self):
        spec = ScenarioSpec(
            "flat",
            (CohortSpec(PAPER_ARCHETYPE),),
            render=RenderSpec(capacity_spread=0.0),
        )
        fleet = render_fleet(spec, SMALL)
        assert fleet.scenario_fp is not None
        # Spread 0 collapses headroom_range to its midpoint (1.15 for the
        # calibrated (1.00, 1.30)): every box sized at exactly that ratio.
        for box in fleet.boxes:
            ratio = box.cpu_capacity / sum(box.vm_cpu_capacities)
            assert ratio == pytest.approx(1.15)

    def test_out_of_band_knob_rejected(self):
        with pytest.raises(ValueError, match="noise_scale"):
            RenderSpec(noise_scale=11.0)


class TestGenerationGuard:
    """Satellite: REPRO_FORBID_FLEET_GENERATION covers scenario rendering."""

    def test_render_fleet_honours_guard(self, monkeypatch):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        with pytest.raises(RuntimeError, match="forbidden"):
            render_fleet(NAMED_SCENARIOS["spiky"], SMALL)

    def test_generate_fleet_scenario_path_honours_guard(self, monkeypatch):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        with pytest.raises(RuntimeError, match="forbidden"):
            generate_fleet(SMALL, scenario=NAMED_SCENARIOS["spiky"])

    def test_shard_generation_guard_checked_in_parent(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        with pytest.raises(RuntimeError, match="forbidden"):
            generate_fleet_shards(
                SMALL, tmp_path, scenario=NAMED_SCENARIOS["spiky"]
            )

    def test_render_box_stays_callable_under_guard(self, monkeypatch):
        """render_box is the pool-worker unit: workers render by design,
        so the guard binds the fleet-level entry points only."""
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        box = render_box(1, NAMED_SCENARIOS["spiky"], SMALL)
        assert box.scenario_fp == NAMED_SCENARIOS["spiky"].fingerprint()

    def test_worker_shard_unit_renders_under_guard(self, monkeypatch, tmp_path):
        from repro.store.shards import _render_shard_block

        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        metas = _render_shard_block(
            range(1, 3), SMALL, NAMED_SCENARIOS["spiky"], str(tmp_path)
        )
        assert [meta.box_id for meta in metas] == ["box00001", "box00002"]
        for meta in metas:
            assert meta.scenario_fp == NAMED_SCENARIOS["spiky"].fingerprint()

    def test_parallel_scenario_store_matches_serial(self, monkeypatch, tmp_path):
        serial_root = tmp_path / "serial"
        generate_fleet_shards(
            SMALL, serial_root, name="s", scenario=NAMED_SCENARIOS["spiky"]
        )
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel_root = tmp_path / "parallel"
        generate_fleet_shards(
            SMALL, parallel_root, name="s", scenario=NAMED_SCENARIOS["spiky"]
        )
        serial = json.loads((serial_root / "manifest.json").read_text())
        parallel = json.loads((parallel_root / "manifest.json").read_text())
        assert serial == parallel
