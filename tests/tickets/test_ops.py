"""Tests for the incident-operations loop (repro.tickets.ops)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.store import ArtifactKey, clear_memory_tiers, default_store
from repro.store.shards import ShardedFleet, write_fleet_shards
from repro.tickets.incidents import group_incidents, incidents_for_box
from repro.tickets.monitor import TicketRecord, tickets_for_box
from repro.tickets.ops import (
    EVIDENCE_STAGE,
    AssignPolicy,
    EvidenceBundle,
    EvidencePack,
    OpsConfig,
    ScoringPolicy,
    SlaClock,
    SlaPolicy,
    build_evidence,
    evidence_key,
    incident_severity,
    resolve_evidence,
    route_incidents,
    run_box_ops,
    run_fleet_ops,
)
from repro.tickets.ops.pipeline import _box_ops_key
from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, FleetTrace, Resource


def record(window, vm="vm0", box="b0", usage=80.0, resource=Resource.CPU):
    return TicketRecord(
        box_id=box, vm_id=vm, resource=resource, window=window, usage_pct=usage
    )


def incident(windows, vm="vm0", box="b0", usage=80.0):
    return group_incidents(
        [record(w, vm=vm, box=box, usage=usage) for w in windows],
        max_gap_windows=max(1, max(windows) - min(windows)),
    )[0]


POLICY = TicketPolicy(60.0)


@pytest.fixture()
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    clear_memory_tiers()
    yield tmp_path
    clear_memory_tiers()


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


class TestScoring:
    def test_severity_is_relative_overshoot(self):
        # 80% usage over a 60% threshold: mean overshoot 20/60.
        assert incident_severity(incident([1]), POLICY) == pytest.approx(
            1.0 + 20.0 / 60.0
        )

    def test_severity_floor_is_one(self):
        barely = incident([1], usage=60.0001)
        assert incident_severity(barely, POLICY) == pytest.approx(1.0, abs=1e-4)

    def test_score_composes_three_factors(self):
        policy = ScoringPolicy(
            severity_weight=1.0, recurrence_weight=1.0, criticality_weight=1.0
        )
        inc = incident([1])
        severity = incident_severity(inc, POLICY)
        score = policy.score(inc, POLICY, prior_incidents=2, n_vms=4)
        assert score == pytest.approx(severity * 3.0 * 4.0)

    def test_zero_weight_removes_factor(self):
        policy = ScoringPolicy(
            severity_weight=1.0, recurrence_weight=0.0, criticality_weight=0.0
        )
        inc = incident([1])
        chronic = policy.score(inc, POLICY, prior_incidents=50, n_vms=32)
        fresh = policy.score(inc, POLICY, prior_incidents=0, n_vms=1)
        assert chronic == pytest.approx(fresh)

    def test_recurrence_monotone(self):
        policy = ScoringPolicy()
        inc = incident([1])
        scores = [
            policy.score(inc, POLICY, prior_incidents=k, n_vms=2) for k in range(4)
        ]
        assert scores == sorted(scores)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ScoringPolicy(severity_weight=-0.1)

    def test_invalid_inputs_rejected(self):
        inc = incident([1])
        with pytest.raises(ValueError):
            ScoringPolicy().score(inc, POLICY, prior_incidents=-1, n_vms=1)
        with pytest.raises(ValueError):
            ScoringPolicy().score(inc, POLICY, prior_incidents=0, n_vms=0)


class TestAssign:
    def test_round_robin_deals_in_rank_order(self):
        ranked = [incident([w]) for w in (1, 5, 9, 13, 17)]
        assert AssignPolicy(n_queues=2).assign(ranked) == [0, 1, 0, 1, 0]

    def test_sticky_keeps_box_on_one_queue(self):
        ranked = [incident([w], box="chronic") for w in (1, 5, 9)]
        queues = AssignPolicy(n_queues=4, strategy="sticky").assign(ranked)
        assert len(set(queues)) == 1

    def test_sticky_spreads_distinct_boxes(self):
        ranked = [incident([1], box=f"box{i:05d}") for i in range(32)]
        queues = AssignPolicy(n_queues=4, strategy="sticky").assign(ranked)
        assert len(set(queues)) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AssignPolicy(n_queues=0)
        with pytest.raises(ValueError, match="unknown assignment strategy"):
            AssignPolicy(strategy="lottery")


class TestSlaPolicy:
    def test_deadlines_in_minutes(self):
        sla = SlaPolicy(ack_windows=2, resolve_windows=8)
        assert sla.deadlines_minutes(POLICY) == (30, 120)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlaPolicy(ack_windows=-1)
        with pytest.raises(ValueError):
            SlaPolicy(service_windows=0)
        with pytest.raises(ValueError, match="resolve_windows must be at least"):
            SlaPolicy(ack_windows=5, resolve_windows=2)

    def test_clock_breach_flags(self):
        clock = SlaClock(
            start_window=0, ack_window=3, resolve_window=4,
            ack_deadline=1, resolve_deadline=4,
        )
        assert clock.ack_breached
        assert not clock.resolve_breached
        assert clock.breached

    def test_clock_dict_round_trip(self):
        clock = SlaClock(2, 3, 4, 3, 6)
        assert SlaClock.from_dict(clock.to_dict()) == clock


class TestRouting:
    def test_idle_queue_acks_immediately(self):
        routed = route_incidents(
            [incident([5, 6])], POLICY, ScoringPolicy(), AssignPolicy(),
            SlaPolicy(), n_vms=2,
        )
        (item,) = routed
        assert item.clock.ack_window == 5
        assert item.clock.resolve_window == 6
        assert not item.clock.breached

    def test_contention_delays_and_breaches(self):
        # Two same-window incidents forced onto ONE queue: the second
        # waits for the responder and blows its 0-window ack deadline.
        incidents = [incident([0], vm="a"), incident([0], vm="b")]
        routed = route_incidents(
            incidents, POLICY, ScoringPolicy(), AssignPolicy(n_queues=1),
            SlaPolicy(ack_windows=0, resolve_windows=4), n_vms=2,
        )
        acks = sorted(item.clock.ack_window for item in routed)
        assert acks == [0, 1]
        assert sum(item.clock.ack_breached for item in routed) == 1

    def test_two_queues_absorb_the_storm(self):
        incidents = [incident([0], vm="a"), incident([0], vm="b")]
        routed = route_incidents(
            incidents, POLICY, ScoringPolicy(), AssignPolicy(n_queues=2),
            SlaPolicy(ack_windows=0, resolve_windows=4), n_vms=2,
        )
        assert all(item.clock.ack_window == 0 for item in routed)
        assert not any(item.clock.breached for item in routed)

    def test_rank_order_is_descending_score(self):
        # Later incidents on the same box score higher via recurrence.
        incidents = [incident([0]), incident([10]), incident([20])]
        routed = route_incidents(
            incidents, POLICY, ScoringPolicy(), AssignPolicy(), SlaPolicy(),
            n_vms=2,
        )
        scores = [item.score for item in routed]
        assert scores == sorted(scores, reverse=True)
        assert [item.rank for item in routed] == [0, 1, 2]

    def test_empty_input(self):
        assert route_incidents(
            [], POLICY, ScoringPolicy(), AssignPolicy(), SlaPolicy(), n_vms=1
        ) == []


class TestEvidence:
    @pytest.fixture()
    def spiky_box(self):
        usage = np.full(24, 20.0)
        usage[10:13] = 90.0
        return BoxTrace(
            "spiky", 10.0, 20.0, ("v1",), (2.0,), (4.0,), [usage, np.full(24, 10.0)]
        )

    def _routed(self, box):
        incidents = incidents_for_box(box, POLICY)
        return route_incidents(
            incidents, POLICY, ScoringPolicy(), AssignPolicy(), SlaPolicy(),
            n_vms=box.n_vms,
        )

    def test_context_slice_covers_incident(self, spiky_box):
        (routed,) = self._routed(spiky_box)
        bundle = build_evidence(spiky_box, routed, 60.0, context_windows=4)
        assert (bundle.context_lo, bundle.context_hi) == (6, 17)
        np.testing.assert_array_equal(
            bundle.usage_context, spiky_box.usage_matrix()[:, 6:17]
        )
        assert bundle.n_tickets == 3

    def test_context_clamped_to_trace(self, spiky_box):
        (routed,) = self._routed(spiky_box)
        bundle = build_evidence(spiky_box, routed, 60.0, context_windows=100)
        assert (bundle.context_lo, bundle.context_hi) == (0, 24)

    @staticmethod
    def _store_pack(bundle, key):
        """Store ``bundle`` alone in an evidence pack, as the ops loop would."""
        pack_key = ArtifactKey(EVIDENCE_STAGE, "box-fp", "ops-fp")
        pack = EvidencePack(((key.data_fp, key.config_fp),), (bundle,))
        default_store().put(pack_key, pack, memory=False)
        clear_memory_tiers()

    def test_store_round_trip(self, spiky_box, store_env):
        (routed,) = self._routed(spiky_box)
        bundle = build_evidence(spiky_box, routed, 60.0, context_windows=4)
        key = evidence_key(
            bundle.usage_context, OpsConfig(), spiky_box.box_id,
            bundle.start_window, bundle.end_window, 0,
        )
        self._store_pack(bundle, key)
        loaded = resolve_evidence(key.data_fp, key.config_fp)
        assert isinstance(loaded, EvidenceBundle)
        assert loaded.records == bundle.records
        assert loaded.clock == bundle.clock
        np.testing.assert_array_equal(loaded.usage_context, bundle.usage_context)

    def test_optional_arrays_round_trip(self, spiky_box, store_env):
        # predicted/allocations are populated when the ops run rides on an
        # ATM run; the codec must carry them (and their absence) exactly.
        (routed,) = self._routed(spiky_box)
        predicted = np.linspace(0.0, 1.0, 6)
        allocations = np.array([4.0, 8.0])
        bundle = build_evidence(
            spiky_box, routed, 60.0, context_windows=2,
            predicted=predicted, allocations=allocations,
        )
        key = evidence_key(
            bundle.usage_context, OpsConfig(), spiky_box.box_id,
            bundle.start_window, bundle.end_window, 1,
        )
        self._store_pack(bundle, key)
        loaded = resolve_evidence(key.data_fp, key.config_fp)
        np.testing.assert_array_equal(loaded.predicted, predicted)
        np.testing.assert_array_equal(loaded.allocations, allocations)

    def test_key_separates_incident_index(self, spiky_box):
        usage = np.zeros((2, 3))
        key_a = evidence_key(usage, OpsConfig(), "b", 1, 2, index=0)
        key_b = evidence_key(usage, OpsConfig(), "b", 1, 2, index=1)
        assert key_a.data_fp == key_b.data_fp
        assert key_a.config_fp != key_b.config_fp


class TestOpsConfig:
    def test_defaults_fingerprintable(self):
        from repro.store import config_fingerprint

        assert config_fingerprint(OpsConfig()) == config_fingerprint(OpsConfig())

    def test_validation(self):
        with pytest.raises(ValueError):
            OpsConfig(max_gap_windows=-1)
        with pytest.raises(ValueError):
            OpsConfig(context_windows=-1)


class TestBoxOps:
    def test_counts_agree_with_incident_layer(self, small_fleet):
        box = small_fleet.boxes[0]
        cfg = OpsConfig()
        result = run_box_ops(box, cfg)
        assert result.n_tickets == len(tickets_for_box(box, cfg.policy))
        incidents = incidents_for_box(
            box, cfg.policy, max_gap_windows=cfg.max_gap_windows
        )
        assert result.n_incidents == len(incidents)
        assert len(result.rows) == len(incidents)
        assert len(result.evidence_refs) == len(incidents)
        assert sum(result.queue_counts) == result.n_incidents

    def test_digest_deterministic(self, small_fleet):
        box = small_fleet.boxes[0]
        first = run_box_ops(box, OpsConfig())
        second = run_box_ops(box, OpsConfig())
        assert first.assignment_digest == second.assignment_digest
        assert first.evidence_refs == second.evidence_refs

    def test_metrics_recorded(self, small_fleet):
        # Telemetry is published as a box folds into the fleet aggregate.
        box = small_fleet.boxes[0]
        result = run_box_ops(box, OpsConfig())
        obs.reset_metrics()
        run_fleet_ops(FleetTrace([box]))
        counters = obs.metrics_snapshot()["counters"]
        assert counters["ops.boxes"] == 1
        assert counters["ops.incidents"] == result.n_incidents
        assert counters["route.assignments"] == result.n_incidents
        assert "sla.breaches" in counters


class TestFleetOps:
    def test_fleet_aggregate(self, small_fleet):
        result = run_fleet_ops(small_fleet)
        assert result.boxes == small_fleet.n_boxes
        assert result.incidents > 0
        assert result.tickets >= result.incidents
        assert sum(result.queue_counts) == result.incidents
        assert result.evidence_bundles == result.incidents
        assert result.tickets_per_incident() > 1.0
        assert 0.0 <= result.spatial_incident_share() <= 1.0
        assert len(result.top_incidents) <= 10
        scores = [row.score for row in result.top_incidents]
        assert scores == sorted(scores, reverse=True)

    def test_ratios_none_on_calm_fleet(self):
        calm = BoxTrace("calm", 10.0, 20.0, ("v",), (2.0,), (4.0,), np.full((2, 8), 10.0))
        result = run_fleet_ops(FleetTrace([calm]))
        assert result.incidents == 0
        assert result.tickets_per_incident() is None
        assert result.spatial_incident_share() is None

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="no boxes"):
            run_fleet_ops(FleetTrace([]))

    def test_parallel_digests_bit_identical(self, small_fleet):
        serial = run_fleet_ops(small_fleet)
        parallel = run_fleet_ops(small_fleet, jobs=2)
        assert serial.assignment_digest == parallel.assignment_digest
        assert serial.evidence_digest == parallel.evidence_digest
        assert serial.queue_counts == parallel.queue_counts
        assert serial.top_incidents == parallel.top_incidents

    def test_parallel_merges_worker_counters(self, small_fleet):
        obs.reset_metrics()
        serial = run_fleet_ops(small_fleet)
        serial_counters = dict(obs.metrics_snapshot()["counters"])
        obs.reset_metrics()
        run_fleet_ops(small_fleet, jobs=2)
        parallel_counters = obs.metrics_snapshot()["counters"]
        for name in ("ops.boxes", "ops.tickets", "ops.incidents",
                     "route.assignments", "sla.breaches"):
            assert parallel_counters[name] == serial_counters[name]
        assert serial.boxes == serial_counters["ops.boxes"]

    def test_sharded_fleet_matches_in_memory(self, small_fleet, tmp_path):
        root = tmp_path / "shards"
        write_fleet_shards(small_fleet, root)
        in_memory = run_fleet_ops(small_fleet)
        sharded = run_fleet_ops(ShardedFleet(root))
        assert sharded.assignment_digest == in_memory.assignment_digest
        assert sharded.evidence_digest == in_memory.evidence_digest
        assert sharded.incidents == in_memory.incidents


class TestResume:
    def test_resume_serves_cached_boxes(self, small_fleet, store_env):
        first = run_fleet_ops(small_fleet, resume=False)
        obs.reset_metrics()
        clear_memory_tiers()
        second = run_fleet_ops(small_fleet, resume=True)
        counters = obs.metrics_snapshot()["counters"]
        assert counters["ops.resume.hits"] == small_fleet.n_boxes
        assert second.assignment_digest == first.assignment_digest
        assert second.evidence_digest == first.evidence_digest
        assert second.top_incidents == first.top_incidents
        # Resume must still publish the telemetry a fresh run would.
        assert counters["ops.incidents"] == first.incidents
        assert counters["sla.breaches"] == first.breached_incidents

    def test_evidence_resolvable_by_fingerprint(self, small_fleet, store_env):
        run_fleet_ops(small_fleet)
        clear_memory_tiers()
        resolved = 0
        for box in small_fleet:
            result, _ = default_store().get(_box_ops_key(box, OpsConfig()), memory=False)
            for data_fp, config_fp in result.evidence_refs:
                bundle = resolve_evidence(data_fp, config_fp)
                assert isinstance(bundle, EvidenceBundle)
                assert bundle.box_id == box.box_id
                resolved += 1
        assert resolved > 0

    def test_config_change_misses_cache(self, small_fleet, store_env):
        run_fleet_ops(small_fleet)
        obs.reset_metrics()
        run_fleet_ops(
            small_fleet,
            OpsConfig(sla=SlaPolicy(ack_windows=0, resolve_windows=0)),
            resume=True,
        )
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get("ops.resume.hits", 0) == 0


class TestRowSerialization:
    def test_incident_row_round_trip(self, small_fleet):
        result = run_box_ops(small_fleet.boxes[0], OpsConfig())
        for row in result.rows:
            clone = type(row).from_dict(json.loads(json.dumps(row.to_dict())))
            assert clone == row
