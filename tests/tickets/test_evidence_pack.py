"""Evidence packs: one store file per box, every bundle resolvable.

The ops loop stores the evidence bundles of a box's incidents as one
pack (the usage once, over the union of the incidents' context windows).
These tests pin the contract that layout has to keep: every evidence ref
resolves through ``resolve_evidence`` to exactly the bundle
``build_evidence`` builds, the refs (and so the fleet digests) are those
of one-file-per-incident storage, and a stored outcome from another
layout is recomputed rather than resumed.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.core import AtmConfig, run_fleet_atm
from repro.core.stages import box_fingerprint, box_result_key
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.store import (
    STORE_SCHEMA,
    ArtifactKey,
    canonical,
    clear_memory_tiers,
    config_fingerprint,
    data_fingerprint,
    default_store,
)
from repro.tickets.incidents import group_incidents
from repro.tickets.monitor import tickets_for_box
from repro.tickets.ops import (
    EVIDENCE_STAGE,
    TICKET_OPS_STAGE,
    EvidencePack,
    OpsConfig,
    build_evidence,
    evidence_key,
    resolve_evidence,
    route_incidents,
    run_box_ops,
    run_fleet_ops,
)
from repro.tickets.ops.evidence import EVIDENCE_LAYOUT
from repro.tickets.ops.pipeline import (
    _box_ops_key,
    _encode_box_ops,
    _probe_forecast_evidence,
)
from repro.trace.generator import FleetConfig, generate_fleet
from repro.trace.model import BoxTrace, FleetTrace

CFG = FleetConfig(n_boxes=4, days=2, seed=13)


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    clear_memory_tiers()
    yield tmp_path
    clear_memory_tiers()


def _atm_config():
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC,
        temporal_model="seasonal_mean",
        training_windows=96,
        horizon_windows=96,
    )


def _calm_box(n_windows=192):
    usage = np.full(n_windows, 10.0)
    return BoxTrace("calm", 10.0, 20.0, ("v",), (2.0,), (4.0,), [usage, usage])


def _edge_box():
    """Incidents clamped at both trace edges, two with overlapping contexts."""
    cpu = np.full(24, 20.0)
    cpu[[0, 1, 9, 12, 22, 23]] = 90.0
    return BoxTrace(
        "edges", 10.0, 20.0, ("v1",), (2.0,), (4.0,), [cpu, np.full(24, 10.0)]
    )


def _evidence_files(root):
    return sorted((root / EVIDENCE_STAGE).glob("*/*.npz"))


def _expected_bundles(box, config):
    """``build_evidence``'s bundles for ``box`` in rank order: the reference."""
    predicted = allocations = None
    if config.atm is not None:
        predicted, allocations, _ = _probe_forecast_evidence(
            box_result_key(box, config.atm), default_store()
        )
    incidents = group_incidents(
        tickets_for_box(box, config.policy), max_gap_windows=config.max_gap_windows
    )
    routed = route_incidents(
        incidents, config.policy, config.scoring, config.assign, config.sla,
        n_vms=box.n_vms,
    )
    bundles = []
    for item in routed:
        in_horizon = predicted is not None and (
            item.incident.end_window >= config.atm.training_windows
            and item.incident.start_window
            < config.atm.training_windows + predicted.shape[1]
        )
        bundles.append(build_evidence(
            box, item, config.policy.threshold_pct, config.context_windows,
            predicted=predicted if in_horizon else None,
            allocations=allocations if in_horizon else None,
        ))
    return bundles


def _assert_bundle_equal(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray) or isinstance(a, np.ndarray):
            assert a is not None and b is not None, field.name
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def _stored(box, config):
    """The box's ``ticket_ops`` outcome as the fleet run stored it."""
    result, events = default_store().get(_box_ops_key(box, config), memory=False)
    assert events == []
    return result


def _assert_refs_resolve(fleet, config):
    """Every stored ref of every box resolves to its reference bundle; returns them."""
    resolved = []
    for box in fleet.boxes:
        result = _stored(box, config)
        expected = _expected_bundles(box, config)
        assert len(result.evidence_refs) == len(expected)
        for (data_fp, config_fp), want in zip(result.evidence_refs, expected):
            got = resolve_evidence(data_fp, config_fp)
            assert got is not None
            _assert_bundle_equal(got, want)
            assert data_fingerprint(got.usage_context) == data_fp
            resolved.append(got)
    return resolved


class TestRoundTrip:
    @pytest.mark.parametrize("atm_evidence", [False, True])
    def test_every_ref_resolves_to_the_built_bundle(self, store_env, atm_evidence):
        generated = generate_fleet(CFG)
        fleet = FleetTrace(list(generated.boxes) + [_calm_box()])
        config = OpsConfig(atm=_atm_config() if atm_evidence else None)
        if atm_evidence:
            run_fleet_atm(generated, config.atm)
        obs.reset_metrics()
        result = run_fleet_ops(fleet, config)
        counters = obs.metrics_snapshot()["counters"]
        with_incidents = [
            box for box in fleet.boxes if _stored(box, config).n_incidents
        ]
        assert 0 < len(with_incidents) < fleet.n_boxes  # the calm box has none
        # One pack per box with incidents, none for incident-free boxes.
        assert len(_evidence_files(store_env)) == len(with_incidents)
        assert counters["store.evidence.writes"] == len(with_incidents)

        clear_memory_tiers()
        resolved = _assert_refs_resolve(fleet, config)
        assert len(resolved) == result.evidence_bundles == result.incidents
        forecasts = sum(bundle.predicted is not None for bundle in resolved)
        assert (forecasts > 0) == atm_evidence

    def test_clamped_and_overlapping_contexts(self, store_env):
        fleet = FleetTrace([_edge_box()])
        config = OpsConfig(context_windows=4)
        run_fleet_ops(fleet, config)
        assert len(_evidence_files(store_env)) == 1
        clear_memory_tiers()
        bundles = sorted(_assert_refs_resolve(fleet, config), key=lambda b: b.context_lo)
        spans = [(b.context_lo, b.context_hi) for b in bundles]
        assert spans == [(0, 6), (5, 14), (8, 17), (18, 24)]

    def test_bundles_sharing_a_span(self, store_env):
        box = _edge_box()
        (first, *_) = _expected_bundles(box, OpsConfig())
        second = dataclasses.replace(
            first, rank=7, queue=1, usage_context=first.usage_context.copy()
        )
        refs = (("data-a", "config-a"), ("data-b", "config-b"))
        pack_key = ArtifactKey(EVIDENCE_STAGE, "box-fp", "ops-fp")
        default_store().put(pack_key, EvidencePack(refs, (first, second)), memory=False)
        clear_memory_tiers()
        _assert_bundle_equal(resolve_evidence(*refs[0]), first)
        _assert_bundle_equal(resolve_evidence(*refs[1]), second)

    def test_unknown_ref_and_memory_only_store_resolve_to_none(self, store_env, monkeypatch):
        run_fleet_ops(FleetTrace([_edge_box()]))
        assert resolve_evidence("no-such-data", "no-such-config") is None
        monkeypatch.delenv("REPRO_STORE")
        assert resolve_evidence("no-such-data", "no-such-config") is None


class TestEvidenceKey:
    USAGE = np.arange(12.0).reshape(2, 6)

    @pytest.mark.parametrize("with_atm", [False, True])
    @pytest.mark.parametrize("forecast_fp", [None, "data-fp:config-fp"])
    def test_canonical_config_keys_like_the_payload(self, with_atm, forecast_fp):
        config = OpsConfig(atm=_atm_config() if with_atm else None)
        payload = {"config": config, "box_id": "box-7", "span": [3, 5], "index": 2}
        if forecast_fp is not None:
            payload["forecast_fp"] = forecast_fp
        want = config_fingerprint(payload)
        for form in (config, canonical(config)):
            key = evidence_key(self.USAGE, form, "box-7", 3, 5, 2, forecast_fp=forecast_fp)
            assert key.config_fp == want
            assert key.data_fp == data_fingerprint(self.USAGE)

    def test_default_key_is_pinned(self):
        key = evidence_key(self.USAGE, canonical(OpsConfig()), "box-7", 3, 5, 2)
        assert key.data_fp == "17d31497e8f973cad349b82992436d5adee18b4b"
        assert key.config_fp == "8b6b1224f99e99069d93016496b8438dc62bb557"


def _plant(store, key, arrays, meta):
    """Write an artifact file under ``key`` as an earlier layout left it."""
    path = store.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": STORE_SCHEMA,
        "stage": key.stage,
        "data_fp": key.data_fp,
        "config_fp": key.config_fp,
        "meta": meta,
    }
    np.savez(
        path, __meta__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays
    )


class TestLayoutBump:
    def test_old_layout_outcomes_are_recomputed(self, store_env, monkeypatch):
        fleet = generate_fleet(CFG)
        config = OpsConfig()
        monkeypatch.delenv("REPRO_STORE")
        fresh = run_fleet_ops(fleet, config)
        old_results = [run_box_ops(box, config) for box in fleet.boxes]
        monkeypatch.setenv("REPRO_STORE", str(store_env))
        store = default_store()

        # What earlier layouts left behind: bare outcomes (not pairs) keyed
        # without a layout version (per-incident evidence) or with the pack
        # layout only, and one evidence file per incident.
        for box, result in zip(fleet.boxes, old_results):
            for old_payload in (config, {
                "ops": config_fingerprint(config), "evidence": EVIDENCE_LAYOUT,
            }):
                old_key = ArtifactKey(
                    TICKET_OPS_STAGE, box_fingerprint(box), config_fingerprint(old_payload)
                )
                _plant(store, old_key, {}, _encode_box_ops((result, []))[1]["result"])
                assert store.path_for(old_key).exists()
                assert store.get(old_key, memory=False) is None  # never misread
            for data_fp, config_fp in result.evidence_refs:
                _plant(
                    store, ArtifactKey(EVIDENCE_STAGE, data_fp, config_fp),
                    {"usage_context": np.zeros((2, 3))}, {"box_id": box.box_id},
                )
        assert resolve_evidence(*old_results[0].evidence_refs[0]) is None

        clear_memory_tiers()
        obs.reset_metrics()
        resumed = run_fleet_ops(fleet, config, resume=True)
        assert obs.metrics_snapshot()["counters"].get("ops.resume.hits", 0) == 0
        assert resumed.evidence_digest == fresh.evidence_digest
        assert resumed.assignment_digest == fresh.assignment_digest
        _assert_refs_resolve(fleet, config)

        obs.reset_metrics()
        again = run_fleet_ops(fleet, config, resume=True)
        assert obs.metrics_snapshot()["counters"]["ops.resume.hits"] == fleet.n_boxes
        assert again.evidence_digest == fresh.evidence_digest
