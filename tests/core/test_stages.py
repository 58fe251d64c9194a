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
from repro.prediction.spatial.signatures import SignatureSearchConfig, search_signature_set
from repro.resizing.evaluate import ResizingAlgorithm
from repro.store import ArtifactKey, config_fingerprint, data_fingerprint, get_codec
from repro.tickets.policy import TicketPolicy
from repro.trace.generator import FleetConfig, generate_box
from repro.trace.model import BoxTrace
from tests.core import atm_oracle


def _config(**overrides):
    base = AtmConfig(prediction=SpatialTemporalConfig(temporal_model="seasonal_mean"))
    return replace(base, **overrides) if overrides else base


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    return tmp_path


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


def _forecast_key(demands, config):
    return stages.RunKeys.of(config).training_keys(demands)[0]


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
        base = _forecast_key(demands, _config())
        assert base == _forecast_key(demands, _config(epsilon_pct=10.0))
        assert base == _forecast_key(
            demands, _config(algorithms=_config().algorithms[:1])
        )

    def test_forecast_key_sensitive_to_prediction_side(self):
        demands = np.random.default_rng(0).random((6, 480))
        base = _forecast_key(demands, _config())
        assert base != _forecast_key(demands, _config(horizon_windows=48))
        other_model = _config(
            prediction=SpatialTemporalConfig(temporal_model="seasonal_naive")
        )
        assert base != _forecast_key(demands, other_model)
        assert base != _forecast_key(demands + 1e-9, _config())

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"epsilon_pct": 0.0}, {"epsilon_pct": -0.0}, {"horizon_windows": 48}],
    )
    def test_run_keys_equal_the_one_off_keys(self, sample_box, overrides):
        config = _config(**overrides)
        keys = stages.RunKeys.of(config)
        train = sample_box.demand_matrix()[:, : config.training_windows]
        forecast, spatial = keys.training_keys(train)
        assert forecast == atm_oracle.forecast_key(train, config)
        assert spatial == ArtifactKey(
            stages.SPATIAL_STAGE,
            data_fingerprint(train),
            config_fingerprint(config.prediction.search),
        )

    def test_run_keys_tell_signed_zeros_apart(self):
        # -0.0 == 0.0, yet the two configs are keyed apart, as one-off
        # keys would key them.
        plus, minus = (stages.RunKeys.of(_config(epsilon_pct=e)) for e in (0.0, -0.0))
        assert plus.box_result != minus.box_result
        assert plus.forecast == minus.forecast  # ε is sizing-side

    def test_box_result_key_folds_fault_plan(self, sample_box):
        def key():
            return stages.RunKeys.of(_config()).box_result_key(sample_box)

        clean = key()
        plan = faults.parse_fault_spec("box_error:p=0.5", seed=3)
        with faults.fault_plan(plan):
            faulted = key()
        assert clean != faulted
        assert clean == key()

    # Clean-run store keys, pinned as literals: artifacts written by an
    # earlier release must keep resolving.  The payloads still carry the
    # constant ``"degrade": True`` entry for exactly this reason.
    def test_box_result_key_pinned(self, sample_box):
        key = stages.RunKeys.of(_config()).box_result_key(sample_box)
        assert key.digest() == "803ac8bdbdb5684940a16d2226ba8aa4a9f09383"
        assert key.config_fp == "ac1f87f29391fca827172e6d150475a1919a19f7"

    def test_resize_eval_key_pinned(self, sample_box):
        key = stages.resize_eval_key(
            sample_box, TicketPolicy(), tuple(ResizingAlgorithm), 96, 5.0
        )
        assert key.digest() == "ee12680986fb52385a89453bd7960402a309ea87"
        assert key.config_fp == "7cd7fbd040ec5c4b1b3cd27cfd8fe1fa012ccdc3"

    def test_forecast_key_pinned(self, sample_box):
        config = _config()
        train = sample_box.demand_matrix()[:, : config.training_windows]
        key = _forecast_key(train, config)
        assert key.digest() == "da22756405622f9e40d8e21dd20a517d6cac0a34"
        assert key.data_fp == "caba04aeafa5783619ad8ccc23dc4999b046f6fc"
        assert key.config_fp == "cb13c70e5e1b1197671f91d05e978ac3efbb3710"

    def test_spatial_search_key_pinned(self, sample_box, store_env):
        # The search keys itself inside search_signature_set, so the pin
        # is the file it writes: the same slice the pipeline searches.
        train = sample_box.demand_matrix()[:, : _config().training_windows]
        search_signature_set(train, SignatureSearchConfig())
        written = sorted(p.name for p in (store_env / stages.SPATIAL_STAGE).glob("*/*.npz"))
        assert written == ["87332a436e22a558078aae80fc19ef8f6b5e6ef0.npz"]


class TestRunKeys:
    def test_config_halves_fingerprinted_once_per_run(
        self, pipeline_fleet_6d, store_env, monkeypatch
    ):
        built = []
        real = stages.RunKeys.of.__func__
        monkeypatch.setattr(
            stages.RunKeys, "of", classmethod(lambda cls, c: built.append(c) or real(cls, c))
        )
        cold = run_fleet_atm(pipeline_fleet_6d, _config())
        assert len(built) == 1
        monkeypatch.setenv("REPRO_STORE", "")
        assert _aggregates(run_fleet_atm(pipeline_fleet_6d, _config())) == _aggregates(cold)
        assert len(built) == 1  # no store, no keys


class TestWarmRuns:
    def test_warm_run_bit_identical_with_zero_fits(
        self, pipeline_fleet_6d, store_env
    ):
        cfg = _config()
        cold = run_fleet_atm(pipeline_fleet_6d, cfg)
        obs.reset_metrics()
        warm = run_fleet_atm(pipeline_fleet_6d, cfg)
        counters = _counters()
        assert counters.get("predict.fits", 0) == 0
        assert counters.get("spatial.search.computed", 0) == 0
        assert counters.get("stages.forecast.hits") == pipeline_fleet_6d.n_boxes
        assert _aggregates(warm) == _aggregates(cold)

    def test_epsilon_sweep_reuses_forecasts(self, pipeline_fleet_6d, store_env):
        run_fleet_atm(pipeline_fleet_6d, _config())
        obs.reset_metrics()
        run_fleet_atm(pipeline_fleet_6d, _config(epsilon_pct=10.0))
        counters = _counters()
        assert counters.get("predict.fits", 0) == 0
        assert counters.get("spatial.search.computed", 0) == 0

    def test_horizon_sweep_reuses_spatial_only(self, pipeline_fleet_6d, store_env):
        run_fleet_atm(pipeline_fleet_6d, _config())
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
        first = run_fleet_atm(pipeline_fleet_6d, cfg)
        second = run_fleet_atm(pipeline_fleet_6d, cfg)
        assert _aggregates(first) == _aggregates(second)


class TestDemandMatrixOnce:
    """A box run reads its training slice, evaluation slice and sizing
    floors out of one ``BoxTrace.demand_matrix`` call, at every rung."""

    @pytest.fixture
    def calls(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
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
