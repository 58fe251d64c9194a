"""Streaming aggregation: bit-identity with a per-box oracle, shard dispatch.

The acceptance bar for the streaming fold: a parallel run whose results
are folded as chunks land reproduces every downstream number — per-box
accuracies, ticket counts, fleet means, degradation reports — of a
materialized list of per-box worker results computed in-process,
including on fleets where injected faults drive boxes down the
degradation ladder.  And a shard-backed fleet must run while workers
receive only descriptors and the parent never opens a shard.
"""

import pytest

from repro.benchhelpers.scaling import fingerprint_result
from repro.core import faults
from repro.core.config import AtmConfig
from repro.core.degrade import RUNG_FAILED, DegradationEvent
from repro.core.pipeline import FleetAtmResult, run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import (
    FleetReduction,
    ResizingAlgorithm,
    _evaluate_box,
    evaluate_fleet_resizing,
)
from repro.store.shards import write_fleet_shards, load_fleet_shards
from repro.tickets.policy import TicketPolicy
from repro.trace import model
from repro.trace.model import FORBID_GENERATION_ENV_VAR
from tests.core.atm_oracle import run_box_atm
from tests.store.shard_oracle import materialize


@pytest.fixture(autouse=True)
def _fresh_shard_tier():
    model._SHARD_TIER_ACTIVE = False
    yield
    model._SHARD_TIER_ACTIVE = False


@pytest.fixture()
def atm_config():
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="seasonal_mean"
    )


class TestStreamingEquivalence:
    """Streaming fold == a fold over the materialized per-box list, bit for bit."""

    def test_atm_identical_on_degraded_fleet(
        self, pipeline_fleet_6d, atm_config, monkeypatch
    ):
        # Inject primary-fit faults so boxes actually climb the ladder:
        # equivalence must hold for reports too, not just happy paths.
        monkeypatch.setenv("REPRO_FAULTS", "fit_error:p=0.5")
        streamed = run_fleet_atm(pipeline_fleet_6d, atm_config, jobs=2, chunksize=1)
        listed = FleetAtmResult(config=atm_config)
        for box in pipeline_fleet_6d:
            result, events = run_box_atm(box, atm_config, True)
            listed.report.extend(events)
            if result is not None:
                listed.accuracies.append(result.accuracy)
                for reduction in result.reductions.values():
                    listed.reduction.add(reduction)
        assert fingerprint_result(streamed) == fingerprint_result(listed)
        assert streamed.report == listed.report
        assert not streamed.report.ok  # the faults really fired

    def test_resize_identical_on_faulty_fleet(self, small_fleet, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "box_error:p=0.4")
        policy = TicketPolicy(60.0)
        streamed = evaluate_fleet_resizing(
            small_fleet, policy, eval_windows=96, jobs=2
        )
        listed = FleetReduction()
        for box in small_fleet:
            # The per-box contract by hand: the hook fires, else the sweep runs.
            try:
                faults.inject_fault("box_error", box.box_id)
                results, events = _evaluate_box(
                    box, policy, tuple(ResizingAlgorithm), 96, 5.0
                )
            except faults.InjectedFault as exc:
                results = []
                events = [DegradationEvent(box.box_id, "run", RUNG_FAILED, repr(exc))]
            listed.report.extend(events)
            for result in results:
                listed.add(result)
        assert streamed.results == listed.results
        assert streamed.report == listed.report
        assert not streamed.report.ok


class TestShardedDispatch:
    """Shard-backed fleets: descriptor dispatch, manifest-only eligibility.

    That sharded and in-RAM fleets give identical numbers, serially and in
    parallel, is pinned for every fleet driver in ``tests/core/test_fleet.py``.
    """

    def test_parallel_sharded_run_with_materialization_forbidden(
        self, tmp_path, pipeline_fleet_6d, atm_config, monkeypatch
    ):
        # The regression the guard satellite pins down: with the shard tier
        # active and the guard set, a parallel run must complete — workers
        # map per-box views and never build a FleetTrace.  (Forked workers
        # inherit both the env var and the active-tier flag.)
        write_fleet_shards(pipeline_fleet_6d, tmp_path)
        sharded = load_fleet_shards(tmp_path)
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        result = run_fleet_atm(sharded, atm_config, jobs=2, chunksize=1)
        assert len(result.accuracies) == pipeline_fleet_6d.n_boxes
        # The *parent* never opened a shard (only workers did), so its own
        # tier flag is still clear; materialize marks it before loading
        # and therefore trips the guard.
        assert not model.shard_tier_active()
        with pytest.raises(RuntimeError, match="materialization is forbidden"):
            materialize(sharded)

    def test_eligibility_from_manifest(self, tmp_path, small_fleet, atm_config):
        # A one-day fleet is too short for the 6-day ATM setup; the sharded
        # path must reject it from the manifest alone, like the in-RAM path.
        write_fleet_shards(small_fleet, tmp_path)
        sharded = load_fleet_shards(tmp_path)
        result = run_fleet_atm(sharded, atm_config)
        assert result.accuracies == []
        (event,) = result.report.events
        assert (event.box_id, event.stage, event.rung) == (
            f"fleet:{small_fleet.name}",
            "fleet",
            "failed",
        )
        assert "windows required" in event.reason
