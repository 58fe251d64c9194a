"""Tests of the per-box stages' artifact keys and codecs, and warm-run reuse."""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core import faults, stages
from repro.core.config import AtmConfig
from repro.core.online import OnlineAtmController
from repro.core.pipeline import run_fleet_atm
from repro.prediction.combined import SpatialTemporalConfig
from repro.resizing.evaluate import ResizingAlgorithm
from repro.store import clear_memory_tiers, get_codec
from repro.tickets.policy import TicketPolicy
from repro.trace.generator import FleetConfig, generate_box
from repro.trace.model import BoxTrace


def _config(**overrides):
    base = AtmConfig(prediction=SpatialTemporalConfig(temporal_model="seasonal_mean"))
    return replace(base, **overrides) if overrides else base


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    clear_memory_tiers()
    yield tmp_path
    clear_memory_tiers()


def _aggregates(result):
    """A bit-faithful digest of a fleet run (repr preserves float bits)."""
    return (
        repr(result.accuracies),
        repr(
            [
                (r.box_id, r.resource, r.algorithm, r.tickets_before, r.tickets_after)
                for r in result.reduction.results
            ]
        ),
        repr([e.to_dict() for e in result.report.events]),
    )


def _counters():
    return obs.metrics_snapshot()["counters"]


class TestGraph:
    def test_artifact_stages_have_codecs(self):
        for stage in (
            stages.SPATIAL_STAGE,
            stages.FORECAST_STAGE,
            stages.BOX_RESULT_STAGE,
            stages.RESIZE_EVAL_STAGE,
        ):
            assert get_codec(stage) is not None, stage


class TestKeys:
    def test_box_fingerprint_deterministic_and_content_addressed(self):
        box_a = generate_box(0, FleetConfig(days=6, seed=5))
        box_a2 = generate_box(0, FleetConfig(days=6, seed=5))
        box_b = generate_box(1, FleetConfig(days=6, seed=5))
        assert stages.box_fingerprint(box_a) == stages.box_fingerprint(box_a2)
        assert stages.box_fingerprint(box_a) != stages.box_fingerprint(box_b)

    def test_forecast_key_ignores_sizing_side_config(self):
        demands = np.random.default_rng(0).random((6, 480))
        base = stages.forecast_key(demands, _config())
        assert base == stages.forecast_key(demands, _config(epsilon_pct=10.0))
        assert base == stages.forecast_key(
            demands, _config(algorithms=_config().algorithms[:1])
        )

    def test_forecast_key_sensitive_to_prediction_side(self):
        demands = np.random.default_rng(0).random((6, 480))
        base = stages.forecast_key(demands, _config())
        assert base != stages.forecast_key(demands, _config(horizon_windows=48))
        other_model = _config(
            prediction=SpatialTemporalConfig(temporal_model="seasonal_naive")
        )
        assert base != stages.forecast_key(demands, other_model)
        assert base != stages.forecast_key(demands + 1e-9, _config())

    def test_box_result_key_folds_fault_plan(self, sample_box):
        clean = stages.box_result_key(sample_box, _config())
        plan = faults.parse_fault_spec("box_error:p=0.5", seed=3)
        with faults.fault_plan(plan):
            faulted = stages.box_result_key(sample_box, _config())
        assert clean != faulted
        assert clean == stages.box_result_key(sample_box, _config())

    # Clean-run store keys, pinned as literals: artifacts written by an
    # earlier release must keep resolving.  The payloads still carry the
    # constant ``"degrade": True`` entry for exactly this reason.
    def test_box_result_key_pinned(self, sample_box):
        key = stages.box_result_key(sample_box, _config())
        assert key.digest() == "803ac8bdbdb5684940a16d2226ba8aa4a9f09383"
        assert key.config_fp == "ac1f87f29391fca827172e6d150475a1919a19f7"

    def test_resize_eval_key_pinned(self, sample_box):
        key = stages.resize_eval_key(
            sample_box, TicketPolicy(), tuple(ResizingAlgorithm), 96, 5.0
        )
        assert key.digest() == "ee12680986fb52385a89453bd7960402a309ea87"
        assert key.config_fp == "7cd7fbd040ec5c4b1b3cd27cfd8fe1fa012ccdc3"


class TestWarmRuns:
    def test_warm_run_bit_identical_with_zero_fits(
        self, pipeline_fleet_6d, store_env
    ):
        cfg = _config()
        cold = run_fleet_atm(pipeline_fleet_6d, cfg)
        clear_memory_tiers()
        obs.reset_metrics()
        warm = run_fleet_atm(pipeline_fleet_6d, cfg)
        counters = _counters()
        assert counters.get("predict.fits", 0) == 0
        assert counters.get("spatial.search.computed", 0) == 0
        assert counters.get("stages.forecast.hits") == pipeline_fleet_6d.n_boxes
        assert _aggregates(warm) == _aggregates(cold)

    def test_epsilon_sweep_reuses_forecasts(self, pipeline_fleet_6d, store_env):
        run_fleet_atm(pipeline_fleet_6d, _config())
        clear_memory_tiers()
        obs.reset_metrics()
        run_fleet_atm(pipeline_fleet_6d, _config(epsilon_pct=10.0))
        counters = _counters()
        assert counters.get("predict.fits", 0) == 0
        assert counters.get("spatial.search.computed", 0) == 0

    def test_horizon_sweep_reuses_spatial_only(self, pipeline_fleet_6d, store_env):
        run_fleet_atm(pipeline_fleet_6d, _config())
        clear_memory_tiers()
        obs.reset_metrics()
        run_fleet_atm(pipeline_fleet_6d, _config(horizon_windows=48))
        counters = _counters()
        # New horizon -> new forecasts (temporal fits rerun) ...
        assert counters.get("predict.fits") == pipeline_fleet_6d.n_boxes
        # ... but the signature searches are served from the disk tier.
        assert counters.get("spatial.search.computed", 0) == 0

    def test_no_store_runs_stay_identical(self, pipeline_fleet_6d, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        cfg = _config()
        clear_memory_tiers()
        first = run_fleet_atm(pipeline_fleet_6d, cfg)
        clear_memory_tiers()
        second = run_fleet_atm(pipeline_fleet_6d, cfg)
        assert _aggregates(first) == _aggregates(second)


class TestDemandMatrixOnce:
    """A box run reads its training slice, evaluation slice and sizing
    floors out of one ``BoxTrace.demand_matrix`` call, at every rung."""

    @pytest.fixture
    def calls(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        clear_memory_tiers()
        seen = []
        real = BoxTrace.demand_matrix

        def counted(box, resource=None):
            seen.append(box.box_id)
            return real(box, resource)

        monkeypatch.setattr(BoxTrace, "demand_matrix", counted)
        return seen

    def test_offline_run_reads_each_box_once(self, pipeline_fleet_6d, calls):
        result = run_fleet_atm(pipeline_fleet_6d, _config())
        assert result.report.ok
        assert sorted(calls) == sorted(box.box_id for box in pipeline_fleet_6d)

    def test_seasonal_rung_reuses_the_box_run(self, pipeline_fleet_6d, calls):
        plan = faults.FaultPlan(rules=(faults.FaultRule("fit_error", 1.0),))
        with faults.fault_plan(plan):
            result = run_fleet_atm(pipeline_fleet_6d, _config())
        assert len(result.report.events) == pipeline_fleet_6d.n_boxes
        assert sorted(calls) == sorted(box.box_id for box in pipeline_fleet_6d)

    def test_online_run_reads_the_box_once(self, calls):
        box = generate_box(2, FleetConfig(days=7, seed=41))
        result = OnlineAtmController(box, _config()).run()
        assert {step.day_index for step in result.steps} == {0, 1}
        assert calls == [box.box_id]
