"""Incremental online control plane: warm refits, drift gate, parallel fleets.

Pins the three invariants of the incremental step machinery:

* **Legacy bit-identity** — with ``refit_every_steps=1`` the cadence cap
  is always due, so neither warm refits nor the drift threshold change
  anything; with cold predictors and ``drift_threshold=inf`` the per-step
  path is exactly the pre-incremental controller.
* **Drift-gate behavior** — on a stable workload the gate skips the
  signature search between cadence refits (regression-pinned counters);
  a sufficiently low threshold makes it fire early, and an infinite one
  leaves the pure cadence.
* **Serial/parallel/sharded bit-identity** — ``run_online_fleet`` folds
  to the same digests for any worker count, for memory-mapped shards, and
  under injected faults/degradations.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.core import faults
from repro.core.config import AtmConfig
from repro.core import online
from repro.core.online import OnlineAtmController, run_online_fleet
from repro.prediction.combined import SpatialTemporalPredictor
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.store.shards import load_fleet_shards, write_fleet_shards
from repro.trace.generator import FleetConfig, generate_box, generate_fleet


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in (
        "REPRO_JOBS",
        "REPRO_STORE",
        faults.FAULTS_ENV_VAR,
        faults.FAULTS_SEED_ENV_VAR,
    ):
        monkeypatch.delenv(name, raising=False)
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def _cold_predictors(monkeypatch):
    """Build the controller's predictors without the warm-refit chain."""
    monkeypatch.setattr(
        online,
        "SpatialTemporalPredictor",
        lambda config, **_: SpatialTemporalPredictor(config),
    )


def _neural_config():
    return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="neural")


def _seasonal_config():
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="seasonal_mean"
    )


def _run_digest(result):
    """Byte-exact digest of one box's rolling run."""
    return tuple(
        (
            s.day_index,
            s.resource.value,
            s.ape,
            s.tickets_static,
            s.tickets_atm,
            s.allocation.tobytes(),
            s.predicted_mean,
            s.rung,
            s.reason,
        )
        for s in result.steps
    )


def _fleet_digest(fleet_result):
    boxes = {box_id: _run_digest(r) for box_id, r in fleet_result.items()}
    events = tuple(
        (e.box_id, e.stage, e.rung, e.reason, e.step)
        for e in fleet_result.report.events
    )
    return boxes, events


def _counters():
    return obs.metrics_snapshot()["counters"]


class TestLegacyBitIdentity:
    def test_gates_change_nothing_at_cadence_one(self, monkeypatch):
        """refit_every_steps=1: every step cold-fits either way."""
        box = generate_box(2, FleetConfig(days=7, seed=41))
        config = _neural_config()
        with_gates = OnlineAtmController(box, config, refit_every_steps=1).run()
        _cold_predictors(monkeypatch)
        without = OnlineAtmController(
            box, config, refit_every_steps=1, drift_threshold=math.inf
        ).run()
        assert _run_digest(with_gates) == _run_digest(without)
        assert not with_gates.degradations and not without.degradations


class TestDriftGate:
    def test_stable_workload_skips_re_search(self):
        """Regression pin: a huge cap + default threshold = one search."""
        box = generate_box(2, FleetConfig(days=8, seed=41))
        controller = OnlineAtmController(box, _neural_config(), refit_every_steps=100)
        n_steps = controller.n_steps
        assert n_steps >= 2
        result = controller.run()
        assert not result.degradations
        c = _counters()
        assert c["online.refit"] == 1  # only the initial fit searched
        assert c["online.drift_skips"] == n_steps - 1
        assert c.get("online.refit.drift", 0) == 0
        assert c.get("online.refit.cap", 0) == 0
        assert c["online.refit_temporal"] == n_steps - 1

    def test_low_threshold_fires_early_re_search(self):
        """The same workload re-searches when the threshold undercuts its
        natural window-to-window drift (~0.03 on this trace)."""
        box = generate_box(2, FleetConfig(days=8, seed=41))
        result = OnlineAtmController(
            box, _neural_config(), refit_every_steps=100, drift_threshold=0.0
        ).run()
        assert not result.degradations
        c = _counters()
        assert c["online.refit.drift"] >= 1
        assert c["online.refit"] == 1 + c["online.refit.drift"]
        assert c.get("online.drift_skips", 0) == 0

    def test_cadence_cap_still_fires_with_gate_on(self):
        box = generate_box(2, FleetConfig(days=8, seed=41))
        OnlineAtmController(box, _neural_config(), refit_every_steps=1).run()
        c = _counters()
        assert c.get("online.drift_skips", 0) == 0  # cap preempts the check
        assert c.get("online.refit.drift", 0) == 0

    def test_gate_off_restores_pure_cadence(self):
        """drift_threshold=inf: scored every step, never re-searched early."""
        box = generate_box(2, FleetConfig(days=8, seed=41))
        controller = OnlineAtmController(
            box, _neural_config(), refit_every_steps=100, drift_threshold=math.inf
        )
        controller.run()
        c = _counters()
        assert c["online.refit"] == 1
        assert c["online.drift_skips"] == controller.n_steps - 1
        assert c.get("online.refit.drift", 0) == 0

    def test_bad_threshold_rejected(self):
        box = generate_box(2, FleetConfig(days=7, seed=41))
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError, match="drift_threshold.*inf"):
                OnlineAtmController(box, _neural_config(), drift_threshold=bad)
            # The fleet driver rejects it up front instead of failing
            # every box down the degradation ladder.
            with pytest.raises(ValueError, match="drift_threshold"):
                run_online_fleet(
                    generate_fleet(FleetConfig(n_boxes=1, days=7, seed=41)),
                    _neural_config(),
                    drift_threshold=bad,
                )


class TestWarmColdParity:
    def test_incremental_run_matches_cold_reduction(self):
        """The win condition: incremental steps preserve the control
        decisions' quality — ticket reduction within tolerance of the
        every-step cold-refit run, with zero degradations."""
        box = generate_box(2, FleetConfig(days=10, seed=41))
        config = _neural_config()
        incremental = OnlineAtmController(box, config, refit_every_steps=100).run()
        assert not incremental.degradations
        warm_epoch_counters = _counters()
        assert warm_epoch_counters.get("warm.models_warm", 0) > 0

        obs.reset_metrics()
        cold = OnlineAtmController(box, config, refit_every_steps=1).run()
        assert not cold.degradations

        assert len(incremental.steps) == len(cold.steps)
        assert cold.total_tickets(static=True) > 0
        assert abs(incremental.reduction_percent() - cold.reduction_percent()) < 5.0


class TestParallelFleet:
    def test_serial_and_parallel_fleets_bit_identical(self):
        fleet = generate_fleet(FleetConfig(n_boxes=4, days=7, seed=62))
        config = _seasonal_config()
        serial = run_online_fleet(fleet, config, jobs=1)
        parallel = run_online_fleet(fleet, config, jobs=2)
        assert len(serial) == 4
        assert _fleet_digest(serial) == _fleet_digest(parallel)

    def test_faulted_fleets_bit_identical(self, monkeypatch):
        """Degradations and whole-box failures fold identically too."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "fit_error:p=0.6;box_error:p=0.3")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "3")
        fleet = generate_fleet(FleetConfig(n_boxes=5, days=7, seed=62))
        config = _seasonal_config()
        serial = run_online_fleet(fleet, config, jobs=1)
        parallel = run_online_fleet(fleet, config, jobs=2)
        assert not serial.report.ok  # the spec above must actually bite
        assert _fleet_digest(serial) == _fleet_digest(parallel)

    def test_sharded_fleet_matches_in_ram(self, tmp_path):
        fleet = generate_fleet(FleetConfig(n_boxes=3, days=7, seed=62))
        config = _seasonal_config()
        write_fleet_shards(fleet, tmp_path)
        sharded = load_fleet_shards(tmp_path)
        in_ram = run_online_fleet(fleet, config, jobs=1)
        from_shards = run_online_fleet(sharded, config, jobs=2)
        assert _fleet_digest(in_ram) == _fleet_digest(from_shards)

    def test_sharded_eligibility_from_manifest(self, tmp_path):
        # 1-day boxes are manifest-ineligible; the fleet degrades to the
        # empty result without opening a single shard.
        fleet = generate_fleet(FleetConfig(n_boxes=2, days=1, seed=3))
        write_fleet_shards(fleet, tmp_path)
        sharded = load_fleet_shards(tmp_path)
        result = run_online_fleet(sharded, _seasonal_config())
        assert len(result) == 0
        assert not result.report.ok

    def test_fleet_aggregates_sum_per_box(self):
        fleet = generate_fleet(FleetConfig(n_boxes=3, days=7, seed=62))
        result = run_online_fleet(fleet, _seasonal_config())
        assert result.total_tickets(static=True) == sum(
            r.total_tickets(static=True) for r in result.values()
        )
        assert result.total_tickets() == sum(
            r.total_tickets() for r in result.values()
        )
        if result.total_tickets(static=True) > 0:
            assert np.isfinite(result.reduction_percent())


class TestInterruptedResume:
    def test_replayed_run_serves_refits_from_store(self, tmp_path, monkeypatch):
        """An interrupted online run resumes bit-identically: the replay
        hits every persisted warm state and trains nothing."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        box = generate_box(2, FleetConfig(days=8, seed=41))
        config = _neural_config()
        first = OnlineAtmController(box, config, refit_every_steps=100).run()
        obs.reset_metrics()
        replay = OnlineAtmController(box, config, refit_every_steps=100).run()
        c = _counters()
        assert c.get("warm.resume_hits", 0) >= 1
        assert _run_digest(first) == _run_digest(replay)


class TestWarmKeysNeedAStore:
    def test_only_a_store_run_hashes_warm_keys(self, tmp_path, monkeypatch):
        """Warm-state keys exist to read and write the store: a run without
        one hashes no stack or initializer for them."""
        from repro.prediction.temporal import warm

        calls = []
        fingerprint = warm.data_fingerprint

        def counting(*args, **kwargs):
            calls.append(args)
            return fingerprint(*args, **kwargs)

        monkeypatch.setattr(warm, "data_fingerprint", counting)
        fleet = generate_fleet(FleetConfig(n_boxes=2, days=7, seed=41))
        run_online_fleet(fleet, _neural_config(), refit_every_steps=100)
        assert calls == []
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        run_online_fleet(fleet, _neural_config(), refit_every_steps=100)
        assert len(calls) == 4  # two boxes x two steps
