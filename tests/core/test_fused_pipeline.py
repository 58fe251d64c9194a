"""Fleet-fused training plane through ``run_fleet_atm``: equivalence pins.

The fused chunk worker (:func:`repro.core.pipeline._run_box_atm_fused_chunk`)
claims to be observable only as wall-clock: same per-box results, same
degradation events, same store artifacts under the same keys as the
strictly per-box :func:`repro.core.pipeline._run_box_atm`.  These tests
pin that against the per-box oracle, across worker counts, fault
injection, and cross-path resume.
"""

import os

import pytest

from repro import obs
from repro.benchhelpers.scaling import fingerprint_result
from repro.core.config import AtmConfig
from repro.core.faults import FaultPlan, FaultRule, fault_plan
from repro.core.pipeline import (
    FUSED_CHUNK_BOXES,
    FleetAtmResult,
    _run_box_atm,
    _run_box_atm_fused_chunk,
    run_fleet_atm,
)
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.store import clear_memory_tiers
from repro.trace.generator import FleetConfig, generate_fleet

NEURAL = AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="neural")


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetConfig(n_boxes=4, days=6, seed=7))


def _fold(pairs):
    """Fold per-box ``(result, events)`` pairs the way ``run_fleet_atm`` does."""
    out = FleetAtmResult(config=NEURAL)
    for result, events in pairs:
        out.report.extend(events)
        if result is not None:
            out.accuracies.append(result.accuracy)
            for reduction in result.reductions.values():
                out.reduction.add(reduction)
    return out


def run(fleet, fused, resume=False):
    """Every box through one chunk worker, counters isolated.

    ``fused=False`` is the oracle: ``_run_box_atm`` box by box.
    """
    items = list(fleet)
    obs.reset_metrics()
    if fused:
        pairs = _run_box_atm_fused_chunk(items, NEURAL, resume)
    else:
        pairs = [_run_box_atm(item, NEURAL, resume) for item in items]
    return _fold(pairs), obs.metrics_snapshot()["counters"]


def run_fleet(fleet, **kwargs):
    """A full ``run_fleet_atm`` (fused for the neural model), counters isolated."""
    obs.reset_metrics()
    result = run_fleet_atm(fleet, NEURAL, **kwargs)
    return result, obs.metrics_snapshot()["counters"]


class TestEquivalence:
    def test_fused_matches_per_box(self, fleet):
        baseline, base_counters = run(fleet, fused=False)
        fused, counters = run(fleet, fused=True)
        assert fingerprint_result(fused) == fingerprint_result(baseline)
        # The per-box oracle must not have engaged the fused plane...
        assert "fused.groups" not in base_counters
        # ...and the fused chunk must have, with zero per-box fallbacks.
        assert counters["fused.groups"] > 0
        assert counters.get("fused.fallback_boxes", 0) == 0
        # run_fleet_atm takes the fused plane and folds the same numbers.
        fleet_run, fleet_counters = run_fleet(fleet)
        assert fleet_counters["fused.groups"] > 0
        assert fingerprint_result(fleet_run) == fingerprint_result(baseline)

    def test_parallel_fused_matches_serial(self, fleet):
        serial, _ = run_fleet(fleet)
        parallel, _ = run_fleet(fleet, jobs=2)
        assert fingerprint_result(parallel) == fingerprint_result(serial)

    def test_events_empty_on_clean_run(self, fleet):
        fused, _ = run_fleet(fleet)
        assert fused.report.events == []


class TestChunkPolicy:
    def test_serial_fused_chunksize_takes_full_cap(self, fleet, monkeypatch):
        """jobs=1 fused runs use the whole chunk cap (fuller mega-batches)."""
        from repro.core import pipeline

        seen = {}
        original = pipeline._run_box_atm_fused_chunk

        def spy(items, *common):
            seen["chunk"] = max(seen.get("chunk", 0), len(items))
            return original(items, *common)

        monkeypatch.setattr(pipeline, "_run_box_atm_fused_chunk", spy)
        run_fleet_atm(fleet, NEURAL)
        # 4 boxes < the 64-box cap: one chunk holds the whole fleet.
        assert seen["chunk"] == min(fleet.n_boxes, FUSED_CHUNK_BOXES)


class TestFaultParity:
    def test_degradation_events_match_per_box_path(self, fleet):
        """Injected fit errors degrade identically down both paths."""
        plan = FaultPlan(rules=(FaultRule(kind="fit_error", probability=1.0),))
        with fault_plan(plan):
            baseline, _ = run(fleet, fused=False)
        with fault_plan(plan):
            fused, counters = run(fleet, fused=True)
        assert fingerprint_result(fused) == fingerprint_result(baseline)
        assert [e.to_dict() for e in fused.report.events] == [
            e.to_dict() for e in baseline.report.events
        ]
        # Every box fell back to the per-box ladder, none silently lost.
        assert counters["fused.fallback_boxes"] == fleet.n_boxes
        assert len(fused.accuracies) == fleet.n_boxes
        with fault_plan(plan):
            fleet_run, _ = run_fleet(fleet)
        assert fingerprint_result(fleet_run) == fingerprint_result(baseline)
        assert fleet_run.report == baseline.report


class TestStoreStability:
    @pytest.fixture()
    def store_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        clear_memory_tiers()
        yield tmp_path
        clear_memory_tiers()

    @staticmethod
    def _files(root):
        return {
            os.path.relpath(os.path.join(base, f), root)
            for base, _, names in os.walk(root)
            for f in names
        }

    def test_fused_artifacts_resume_on_per_box_path(self, fleet, store_env):
        """Cross-path resume: fused writes, per-box serves from the store."""
        fused, _ = run_fleet(fleet)
        clear_memory_tiers()
        resumed, counters = run(fleet, fused=False, resume=True)
        assert counters["pipeline.resume.hits"] == fleet.n_boxes
        assert fingerprint_result(resumed) == fingerprint_result(fused)

    def test_per_box_artifacts_resume_on_fused_path(self, fleet, store_env):
        baseline, _ = run(fleet, fused=False)
        clear_memory_tiers()
        resumed, counters = run_fleet(fleet, resume=True)
        assert counters["pipeline.resume.hits"] == fleet.n_boxes
        # Everything served from the store: the fused fit never ran.
        assert "fused.groups" not in counters
        assert fingerprint_result(resumed) == fingerprint_result(baseline)

    def test_store_keys_identical_across_paths(self, fleet, store_env):
        """A per-box rerun over a fused-built store adds zero files."""
        run_fleet(fleet)
        after_fused = self._files(store_env)
        assert after_fused  # the run did materialize artifacts
        clear_memory_tiers()
        run(fleet, fused=False)
        assert self._files(store_env) == after_fused
