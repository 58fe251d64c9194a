"""Resume-equivalence tests: interrupted fleet runs restart bit-identically.

The scenario the artifact store exists for: a fleet run dies partway (here
via a ``KeyboardInterrupt`` raised while one box computes, which the
degradation ladder does not catch), leaving the completed boxes' result
artifacts on disk.  A resumed run must serve those
boxes from the store, compute only the remainder, and produce aggregates
bit-identical to a run that was never interrupted.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.core import faults, stages
from repro.core.config import AtmConfig
from repro.core.faults import FaultPlan, FaultRule, fault_plan
from repro.core.online import OnlineAtmController
from repro.core.pipeline import run_fleet_atm
from repro.prediction.combined import SpatialTemporalConfig
from repro.resizing.evaluate import ResizingAlgorithm, evaluate_fleet_resizing
from repro.tickets.policy import TicketPolicy
from repro.trace.model import FleetTrace


def _config(**overrides):
    base = AtmConfig(prediction=SpatialTemporalConfig(temporal_model="seasonal_mean"))
    return replace(base, **overrides) if overrides else base


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    return tmp_path


def _aggregates(result):
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


def _single_victim_plan(fleet, min_index=1):
    """A fit-error plan that fires for exactly one box.

    Scans seeds until the box with the smallest hash draw sits at
    ``min_index`` or later, then sets the probability between the smallest
    and second-smallest draw so precisely that box fires.
    """
    box_ids = [box.box_id for box in fleet]
    for seed in range(500):
        units = [faults._hash_unit(seed, "fit_error", b) for b in box_ids]
        order = sorted(range(len(units)), key=units.__getitem__)
        victim, runner_up = order[0], order[1]
        if victim >= min_index and units[runner_up] - units[victim] > 1e-6:
            probability = (units[victim] + units[runner_up]) / 2.0
            rule = FaultRule(kind="fit_error", probability=probability)
            return FaultPlan(rules=(rule,), seed=seed), victim
    raise AssertionError("no suitable fault seed found")


class TestPipelineResume:
    def test_interrupted_run_resumes_bit_identically(
        self, pipeline_fleet_6d, store_env, monkeypatch
    ):
        cfg = _config()
        victim = 2
        victim_id = pipeline_fleet_6d.boxes[victim].box_id

        # The never-interrupted reference, computed without a store.
        with monkeypatch.context() as env:
            env.delenv("REPRO_STORE")
            reference = run_fleet_atm(pipeline_fleet_6d, cfg)

        # Interrupted run: Ctrl-C lands while the victim box computes.  A
        # KeyboardInterrupt is no Exception, so the ladder lets it through
        # and the serial run dies after the boxes before the victim
        # materialized their artifacts.
        evaluate = stages.evaluate_forecast_stages

        def interrupted(run, prediction):
            if run.box.box_id == victim_id:
                raise KeyboardInterrupt
            return evaluate(run, prediction)

        with monkeypatch.context() as patched:
            patched.setattr(stages, "evaluate_forecast_stages", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_fleet_atm(pipeline_fleet_6d, cfg)
        assert len(list(store_env.glob("box_result/**/*.npz"))) == victim

        # Resume: the prefix is served from the store, the rest computed.
        obs.reset_metrics()
        resumed = run_fleet_atm(pipeline_fleet_6d, cfg, resume=True)
        assert _counters().get("pipeline.resume.hits") == victim
        assert _aggregates(resumed) == _aggregates(reference)

    def test_resume_without_prior_run_computes_everything(
        self, pipeline_fleet_6d, store_env
    ):
        cfg = _config()
        obs.reset_metrics()
        result = run_fleet_atm(pipeline_fleet_6d, cfg, resume=True)
        counters = _counters()
        assert counters.get("pipeline.resume.hits", 0) == 0
        assert len(result.accuracies) == pipeline_fleet_6d.n_boxes

    def test_corrupted_artifact_falls_back_to_recompute(
        self, pipeline_fleet_6d, store_env
    ):
        cfg = _config()
        cold = run_fleet_atm(pipeline_fleet_6d, cfg)
        artifact = sorted(store_env.glob("box_result/**/*.npz"))[0]
        artifact.write_bytes(b"truncated garbage")
        obs.reset_metrics()
        resumed = run_fleet_atm(pipeline_fleet_6d, cfg, resume=True)
        counters = _counters()
        assert counters.get("pipeline.resume.hits") == pipeline_fleet_6d.n_boxes - 1
        assert counters.get("store.box_result.corrupt") == 1
        assert _aggregates(resumed) == _aggregates(cold)

    def test_degraded_boxes_resume_with_their_events(
        self, pipeline_fleet_6d, store_env
    ):
        """A fallback-rung box's events are part of its artifact."""
        cfg = _config()
        plan, victim = _single_victim_plan(pipeline_fleet_6d)
        with fault_plan(plan):
            degraded = run_fleet_atm(pipeline_fleet_6d, cfg)  # degrade ladder
            assert not degraded.report.ok
            obs.reset_metrics()
            resumed = run_fleet_atm(pipeline_fleet_6d, cfg, resume=True)
        assert _counters().get("pipeline.resume.hits") == pipeline_fleet_6d.n_boxes
        assert _aggregates(resumed) == _aggregates(degraded)


class TestParallelStoreSharing:
    def test_second_parallel_run_computes_zero_searches(
        self, pipeline_fleet_6d, store_env
    ):
        """Pool workers persist search results; a second run recomputes none.

        Before the store, worker-local cache entries died with the pool —
        this pins the fix: the second jobs=N run performs zero signature
        searches (and zero fits: forecasts are artifacts too).
        """
        cfg = _config()
        obs.reset_metrics()
        first = run_fleet_atm(pipeline_fleet_6d, cfg, jobs=2, chunksize=1)
        counters = _counters()
        assert counters.get("spatial.search.computed") == pipeline_fleet_6d.n_boxes

        obs.reset_metrics()
        second = run_fleet_atm(pipeline_fleet_6d, cfg, jobs=2, chunksize=1)
        counters = _counters()
        assert counters.get("spatial.search.computed", 0) == 0
        assert counters.get("predict.fits", 0) == 0
        assert _aggregates(second) == _aggregates(first)


class TestOnlineWarmStart:
    def test_offline_artifacts_warm_start_the_online_step(
        self, sample_box, store_env
    ):
        """The online step-0 slice equals the offline training matrix, so
        an offline run's spatial artifact is served from disk."""
        cfg = _config()
        run_fleet_atm(FleetTrace(name="one-box", boxes=[sample_box]), cfg)
        obs.reset_metrics()
        controller = OnlineAtmController(sample_box, cfg)
        controller.run()
        counters = _counters()
        # Step 0's search is a disk hit; later steps (advanced windows) compute.
        assert counters.get("store.spatial.hit_disk", 0) >= 1
        assert (
            counters.get("spatial.search.computed", 0)
            < controller.n_steps
        )


class TestResizeResume:
    def test_resize_sweep_resumes_from_store(self, small_fleet, store_env):
        policy = TicketPolicy()
        algorithms = (ResizingAlgorithm.ATM, ResizingAlgorithm.STINGY)
        first = evaluate_fleet_resizing(
            small_fleet, policy, algorithms, eval_windows=96
        )
        obs.reset_metrics()
        second = evaluate_fleet_resizing(
            small_fleet, policy, algorithms, eval_windows=96, resume=True
        )
        counters = _counters()
        assert counters.get("resize.resume.hits") == small_fleet.n_boxes
        assert repr(
            [(r.box_id, r.resource, r.algorithm, r.tickets_before, r.tickets_after)
             for r in first.results]
        ) == repr(
            [(r.box_id, r.resource, r.algorithm, r.tickets_before, r.tickets_after)
             for r in second.results]
        )

    def test_resize_key_separates_configurations(self, small_fleet, store_env):
        policy = TicketPolicy()
        evaluate_fleet_resizing(
            small_fleet, policy, (ResizingAlgorithm.ATM,), eval_windows=96
        )
        obs.reset_metrics()
        evaluate_fleet_resizing(
            small_fleet,
            policy,
            (ResizingAlgorithm.ATM,),
            eval_windows=96,
            epsilon_pct=10.0,
            resume=True,
        )
        assert _counters().get("resize.resume.hits", 0) == 0
