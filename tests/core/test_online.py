"""Tests for the online rolling controller (repro.core.online)."""

import contextlib

import numpy as np
import pytest

from repro.core.config import AtmConfig
from repro.core.faults import fault_plan, parse_fault_spec
from repro.core.online import OnlineAtmController, run_online_fleet
from repro.core.pipeline import run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import ResizingAlgorithm
from repro.trace.generator import FleetConfig, generate_box, generate_fleet
from repro.trace.model import Resource


@pytest.fixture(scope="module")
def config():
    return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="seasonal_mean")


@pytest.fixture(scope="module")
def week_box():
    return generate_box(2, FleetConfig(days=7, seed=41))


class TestController:
    def test_step_count(self, week_box, config):
        controller = OnlineAtmController(week_box, config)
        assert controller.n_steps == 2  # 7 days - 5 training = 2 horizons

    def test_run_produces_all_steps(self, week_box, config):
        result = OnlineAtmController(week_box, config).run()
        assert len(result.steps) == 2 * 2  # steps x resources
        days = {s.day_index for s in result.steps}
        assert days == {0, 1}

    def test_allocations_respect_budget(self, week_box, config):
        result = OnlineAtmController(week_box, config).run()
        for step in result.steps:
            capacity = week_box.capacity(step.resource)
            assert step.allocation.sum() <= capacity + 1e-6

    def test_ape_finite(self, week_box, config):
        result = OnlineAtmController(week_box, config).run()
        assert np.isfinite(result.mean_ape())

    def test_reduction_accounting(self, week_box, config):
        result = OnlineAtmController(week_box, config).run()
        before = result.total_tickets(static=True)
        after = result.total_tickets()
        assert before == sum(s.tickets_static for s in result.steps)
        assert after == sum(s.tickets_atm for s in result.steps)
        if before > 0:
            assert np.isfinite(result.reduction_percent())

    def test_atm_helps_on_ticketed_boxes(self, config):
        """Aggregated over several boxes, the rolling controller wins."""
        total_before = total_after = 0
        for b in range(5):
            box = generate_box(b, FleetConfig(days=7, seed=55))
            result = OnlineAtmController(box, config).run()
            total_before += result.total_tickets(static=True)
            total_after += result.total_tickets()
        assert total_before > 0
        assert total_after < total_before

    def test_refit_cadence(self, week_box, config):
        eager = OnlineAtmController(week_box, config, refit_every_steps=1)
        lazy = OnlineAtmController(week_box, config, refit_every_steps=10)
        eager_result = eager.run()
        lazy_result = lazy.run()
        # Both run to completion; the lazy one reuses its first fit.
        assert len(eager_result.steps) == len(lazy_result.steps)

    def test_too_short_box_rejected(self, config):
        box = generate_box(0, FleetConfig(days=5, seed=1))
        with pytest.raises(ValueError, match="too short"):
            OnlineAtmController(box, config).run()

    def test_bad_refit_cadence(self, week_box, config):
        with pytest.raises(ValueError):
            OnlineAtmController(week_box, config, refit_every_steps=0)

    def test_steps_for_resource(self, week_box, config):
        result = OnlineAtmController(week_box, config).run()
        cpu_steps = result.steps_for(Resource.CPU)
        assert len(cpu_steps) == 2
        assert all(s.resource is Resource.CPU for s in cpu_steps)


class TestRefitCadenceAdvancesContext:
    """Regression: non-refit steps must track the advancing training window.

    Before the fix, ``refit_every_steps > 1`` kept the entire predictor
    frozen between refits, so every intermediate step replayed the last
    refit's forecast verbatim — day 2 was "predicted" with day 1's output.
    Now the spatial model is reused but the temporal models re-anchor on
    the advanced window, which the per-step ``predicted_mean`` exposes.
    """

    def test_non_refit_step_prediction_advances(self, week_box, config):
        lazy = OnlineAtmController(week_box, config, refit_every_steps=10).run()
        for resource in (Resource.CPU, Resource.RAM):
            steps = lazy.steps_for(resource)
            assert len(steps) == 2
            # Step 1 never re-ran the signature search, yet its forecast
            # differs from step 0's because the training window moved.
            assert steps[0].predicted_mean != steps[1].predicted_mean

    def test_refit_temporal_requires_fit(self, week_box, config):
        from repro.prediction.combined import SpatialTemporalPredictor

        predictor = SpatialTemporalPredictor(config.prediction)
        with pytest.raises(RuntimeError, match="not been fitted"):
            predictor.begin_refit_temporal(week_box.demand_matrix()[:, :480])

    def test_refit_temporal_rejects_series_mismatch(self, week_box, config):
        from repro.prediction.combined import SpatialTemporalPredictor

        train = week_box.demand_matrix()[:, :480]
        predictor = SpatialTemporalPredictor(config.prediction).fit(train)
        with pytest.raises(ValueError, match="series"):
            predictor.begin_refit_temporal(train[:-1])


class TestShortTrainingWindow:
    """Regression: a training window shorter than one day used to crash.

    With ``training_windows < windows_per_day`` the first step's lookback
    slice ``demands[:, start - windows_per_day : start]`` had a negative
    start, which numpy wraps to the array's tail: an empty slice whose
    ``max(axis=1)`` raised. The lookback is now clamped at the trace start.
    """

    def test_sub_day_training_window_runs(self, week_box):
        config = AtmConfig.with_clustering(
            ClusteringMethod.CBC,
            temporal_model="seasonal_mean",
            training_windows=48,  # half a 96-window day
        )
        result = OnlineAtmController(week_box, config).run()
        assert len(result.steps) == 2 * 6  # (672 - 48) // 96 steps x 2 resources
        for step in result.steps:
            capacity = week_box.capacity(step.resource)
            assert step.allocation.sum() <= capacity + 1e-6


class TestStepImmutability:
    """Regression: a frozen OnlineStep stored the caller's mutable array."""

    def test_allocation_is_defensively_copied(self):
        from repro.core.online import OnlineStep

        allocation = np.array([1.0, 2.0, 3.0])
        step = OnlineStep(
            day_index=0,
            resource=Resource.CPU,
            ape=1.0,
            tickets_static=2,
            tickets_atm=1,
            allocation=allocation,
        )
        allocation[:] = -1.0
        assert np.array_equal(step.allocation, [1.0, 2.0, 3.0])


class TestFleetRunner:
    def test_runs_eligible_boxes(self, config):
        fleet = generate_fleet(FleetConfig(n_boxes=3, days=7, seed=62))
        results = run_online_fleet(fleet, config)
        assert len(results) == 3

    def test_fleet_result_is_a_mapping(self, config):
        fleet = generate_fleet(FleetConfig(n_boxes=3, days=7, seed=62))
        results = run_online_fleet(fleet, config)
        assert set(results) == {box.box_id for box in fleet}
        assert sorted(results.items())[0][0] == sorted(results)[0]
        for box_id, result in results.items():
            assert results[box_id] is result
        assert results.report.ok  # healthy run -> empty report

    def test_no_eligible_boxes_degrades_to_empty_result(self, config):
        fleet = generate_fleet(FleetConfig(n_boxes=2, days=1, seed=3))
        result = run_online_fleet(fleet, config)
        assert len(result) == 0
        assert not result.report.ok
        (event,) = result.report.events
        assert event.rung == "failed"
        assert event.stage == "fleet"
        assert event.box_id == f"fleet:{fleet.name}"
        assert "windows required" in event.reason
        assert np.isnan(result.reduction_percent())

    def test_chunks_are_capped(self, config, monkeypatch):
        from repro.core import online

        monkeypatch.setattr(online, "default_chunksize", lambda n_items, jobs: 64)
        widths = []
        chunk = online._run_online_chunk

        def spy(boxes, *args):
            boxes = list(boxes)
            widths.append(len(boxes))
            return chunk(boxes, *args)

        monkeypatch.setattr(online, "_run_online_chunk", spy)
        fleet = generate_fleet(FleetConfig(n_boxes=6, days=6, seed=62))
        assert len(run_online_fleet(fleet, config, jobs=1)) == 6
        assert widths == [online.ONLINE_CHUNK_BOXES, 6 - online.ONLINE_CHUNK_BOXES]


#: Fault specs of the cross-driver parity grid (``None`` = clean).  Both
#: faulted plans send every box to the seasonal rung: ``fit_error`` fails
#: the primary fit, ``nan_train`` poisons the slice the primary rejects.
PARITY_PLANS = {"clean": None, "fit_error": "fit_error:p=1.0", "nan_train": "nan_train"}


class TestCrossDriverParity:
    """Online step 0 is the offline box run: one training slice, one
    seasonal rung, one set of sizing floors and one resize → evaluate tail,
    so both drivers set the same allocation from the same forecast."""

    @pytest.fixture(scope="class")
    def fleet(self):
        # Six days: five to train, one online step.
        return generate_fleet(FleetConfig(n_boxes=4, days=6, seed=62))

    @pytest.mark.parametrize("plan", sorted(PARITY_PLANS))
    @pytest.mark.parametrize("model", ["neural", "seasonal_mean"])
    def test_step_zero_matches_offline_box(self, fleet, model, plan):
        config = AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model=model)
        spec = PARITY_PLANS[plan]
        installed = (
            contextlib.nullcontext() if spec is None else fault_plan(parse_fault_spec(spec))
        )
        with installed:
            offline = run_fleet_atm(fleet, config, keep_box_results=True)
            online = run_online_fleet(fleet, config)
        boxes = {result.box_id: result for result in offline.box_results}
        assert set(boxes) == set(online) == {box.box_id for box in fleet}
        expected_rung = "primary" if spec is None else "seasonal_mean"
        for box_id, run in online.items():
            box = boxes[box_id]
            assert len(run.steps) == 2
            for step in run.steps:
                cell = (box_id, step.resource.value)
                reduction = box.reductions[(step.resource, ResizingAlgorithm.ATM)]
                assert step.rung == expected_rung, cell
                assert step.allocation.tobytes() == box.allocations[step.resource].tobytes(), cell
                assert step.tickets_static == reduction.tickets_before, cell
                assert step.tickets_atm == reduction.tickets_after, cell
                assert step.predicted_mean == float(box.predicted[step.resource].mean()), cell


#: Cadence cap out of reach: one search, then warm refits gated by drift.
NEVER = 10**6


def _run_key(result):
    """Every observable of one box's rolling run, bytes for arrays."""
    return (
        result.box_id,
        [
            (
                s.day_index, s.resource.value, repr(s.ape), s.tickets_static,
                s.tickets_atm, s.allocation.tobytes(), repr(s.predicted_mean),
                s.rung, s.reason,
            )
            for s in result.steps
        ],
        [(e.box_id, e.stage, e.rung, e.reason, e.step) for e in result.degradations],
    )


class TestLockStepParity:
    """A chunk's boxes step together and share each step's fused fit, yet
    every box's run equals its own one-box :meth:`OnlineAtmController.run`,
    bit for bit, under faults too."""

    @pytest.fixture
    def config(self):
        return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="neural")

    @pytest.fixture
    def fleet(self):
        # Seven days: five to train, two online steps.
        return generate_fleet(FleetConfig(n_boxes=3, days=7, seed=62))

    @pytest.fixture
    def fused_calls(self, monkeypatch):
        """One chunk per fleet, and the request count of every fused fit call."""
        from repro.core import online, stages

        monkeypatch.setattr(online, "default_chunksize", lambda n_items, jobs: n_items)
        calls = []
        fit = stages.fit_temporal_fleet_batch

        def spy(name, history_groups, period=96, states=None):
            assert states is not None, "online fits are chained"
            calls.append(len(history_groups))
            return fit(name, history_groups, period=period, states=states)

        monkeypatch.setattr(stages, "fit_temporal_fleet_batch", spy)
        return calls

    def _assert_parity(self, fleet, config, fused_calls, refit_every=NEVER, **faults):
        online = run_online_fleet(fleet, config, refit_every_steps=refit_every)
        assert max(fused_calls) > 1, "the chunk must fuse several boxes' fits"
        assert set(online) == {box.box_id for box in fleet}
        for box in fleet:
            alone = OnlineAtmController(box, config, refit_every_steps=refit_every).run()
            assert _run_key(online[box.box_id]) == _run_key(alone), box.box_id
        return online

    def test_clean_run(self, fleet, config, fused_calls):
        online = self._assert_parity(fleet, config, fused_calls)
        assert online.report.ok

    def test_fit_error_at_a_middle_step(self, fleet, config, fused_calls, monkeypatch):
        from repro.core import faults

        target = fleet.boxes[1].box_id
        seen = []
        inject = faults.inject_fault

        def second_fit_fails(kind, key):
            # Every run of the target box fails its second primary fit.
            if kind == "fit_error" and key == target:
                seen.append(key)
                if len(seen) % 2 == 0:
                    raise faults.InjectedFault(f"injected {kind} for {key!r}")
            inject(kind, key)

        monkeypatch.setattr(faults, "inject_fault", second_fit_fails)
        # Cadence 1 would re-search anyway; a cap of 2 leaves the others
        # warm at step 1 while the target falls back.
        online = self._assert_parity(fleet, config, fused_calls, refit_every=2)
        rungs = [s.rung for s in online[target].steps]
        assert rungs == ["primary", "primary", "seasonal_mean", "seasonal_mean"]

    def test_nan_poisoned_training_slice(self, fleet, config, fused_calls, monkeypatch):
        from repro.core import faults

        target = fleet.boxes[0].box_id

        def poison_one(key, matrix):
            if key != target:
                return matrix
            poisoned = matrix.copy()
            poisoned[0, 7] = np.nan
            return poisoned

        monkeypatch.setattr(faults, "poison_training", poison_one)
        online = self._assert_parity(fleet, config, fused_calls)
        assert {s.rung for s in online[target].steps} == {"seasonal_mean"}
        for box in fleet.boxes[1:]:
            assert {s.rung for s in online[box.box_id].steps} == {"primary"}

    def test_boxes_with_different_step_counts(self, config, fused_calls):
        from repro.trace.model import FleetTrace

        boxes = [generate_box(i, FleetConfig(days=days, seed=62)) for i, days in
                 enumerate((8, 6, 7))]
        online = self._assert_parity(FleetTrace(boxes, name="ragged"), config, fused_calls)
        assert [len(online[box.box_id].steps) for box in boxes] == [6, 2, 4]

    def test_two_workers_match_one(self, config):
        # Five boxes: jobs=1 cuts chunks of 2, 2, 1 and jobs=2 chunks of 1,
        # so the fused groups differ while every box's run must not.
        fleet = generate_fleet(FleetConfig(n_boxes=5, days=7, seed=63))
        serial = run_online_fleet(fleet, config, refit_every_steps=NEVER, jobs=1)
        parallel = run_online_fleet(fleet, config, refit_every_steps=NEVER, jobs=2)
        assert [_run_key(r) for r in serial.values()] == [
            _run_key(r) for r in parallel.values()
        ]
