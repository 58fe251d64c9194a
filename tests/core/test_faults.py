"""Tests for seeded fault injection and the graceful-degradation ladder."""

import numpy as np
import pytest

from repro.core import faults
from repro.core.config import AtmConfig
from repro.core.degrade import (
    RUNG_FAILED,
    RUNG_HOLD,
    RUNG_PRIMARY,
    RUNG_SEASONAL,
    sanitize_demands,
)
from repro.core.faults import (
    FaultPlan,
    FaultRule,
    fault_plan,
    parse_fault_spec,
)
from repro.core.online import OnlineAtmController, run_online_fleet
from repro.core.pipeline import run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import ResizingAlgorithm, evaluate_fleet_resizing
from repro.tickets.policy import TicketPolicy
from repro.trace.generator import FleetConfig, generate_box, generate_fleet


@pytest.fixture(scope="module")
def config():
    return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="seasonal_mean")


@pytest.fixture(scope="module")
def week_box():
    return generate_box(2, FleetConfig(days=7, seed=41))


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.set_fault_plan(None)


def _plan(*rules, seed=0):
    return FaultPlan(rules=tuple(rules), seed=seed)


def _selective_probability(kind, keys, seed=0):
    """Probability that fires ``kind`` for exactly one of ``keys``.

    Returns ``(victim_key, probability)`` using the same hash the plan
    consults, so the test controls which box faults without ever touching
    the others.
    """
    units = sorted((faults._hash_unit(seed, kind, k), k) for k in keys)
    lowest, second = units[0][0], units[1][0]
    return units[0][1], (lowest + second) / 2.0


class TestSpecParsing:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "fit_error:p=1.0;fallback_error:p=0.5;nan_train:p=0.3,fraction=0.2",
            seed=7,
        )
        assert plan.seed == 7
        assert plan.rule("fit_error").probability == 1.0
        assert plan.rule("fallback_error").probability == 0.5
        rule = plan.rule("nan_train")
        assert (rule.probability, rule.fraction) == (0.3, 0.2)
        assert plan.rule("box_error") is None

    def test_probability_defaults_to_one(self):
        assert parse_fault_spec("fit_error").rule("fit_error").probability == 1.0

    def test_empty_chunks_ignored(self):
        assert parse_fault_spec(";fit_error;;").rules == (
            FaultRule(kind="fit_error", probability=1.0),
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus_kind:p=1.0",
            "fit_error:p=2.0",
            "fit_error:frobnicate=1",
            "slow:p",
            # Syntax older releases accepted: REPRO_FAULTS comes from outside
            # the program, so a stale spec must fail loudly, not be ignored.
            "fit_error:once",
            "slow:p=1.0",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "fit_error:p=1.0")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "3")
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 3
        assert plan.should_inject("fit_error", "any-box")

    def test_env_bad_seed(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "fit_error")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, "not-a-number")
        with pytest.raises(ValueError, match="integer"):
            faults.active_plan()

    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        assert faults.active_plan() is None


class TestDecisions:
    def test_hash_decision_is_deterministic(self):
        plan = _plan(FaultRule("fit_error", 0.5), seed=11)
        first = [plan.should_inject("fit_error", f"box-{i:03d}") for i in range(40)]
        again = [plan.should_inject("fit_error", f"box-{i:03d}") for i in range(40)]
        assert first == again
        assert any(first) and not all(first)  # p=0.5 splits the fleet

    def test_decisions_are_per_kind(self):
        plan = _plan(FaultRule("fit_error", 0.5), FaultRule("box_error", 0.5), seed=11)
        fit = [plan.should_inject("fit_error", f"b{i}") for i in range(40)]
        box = [plan.should_inject("box_error", f"b{i}") for i in range(40)]
        assert fit != box  # independent hashes per fault kind

    def test_inject_noop_without_plan(self):
        faults.set_fault_plan(None)
        faults.inject_fault("fit_error", "b")


class TestPoisoning:
    def test_poison_is_deterministic_copy(self):
        matrix = np.arange(24.0).reshape(4, 6)
        with fault_plan(_plan(FaultRule("nan_train", 1.0, fraction=0.25), seed=5)):
            first = faults.poison_training("b", matrix)
            second = faults.poison_training("b", matrix)
        assert np.all(np.isfinite(matrix))  # input untouched
        assert np.isnan(first).sum() == round(0.25 * matrix.size)
        assert np.array_equal(np.isnan(first), np.isnan(second))

    def test_no_fire_returns_input(self):
        matrix = np.ones((2, 3))
        with fault_plan(_plan(FaultRule("nan_train", 0.0))):
            assert faults.poison_training("b", matrix) is matrix

    def test_sanitize_repairs_poison(self):
        matrix = np.array([[1.0, np.nan, 3.0], [np.nan, np.nan, np.nan]])
        clean = sanitize_demands(matrix)
        assert np.all(np.isfinite(clean))
        assert clean[0, 1] == 2.0  # finite mean of the row
        assert np.all(clean[1] == 0.0)  # no finite samples -> zeros


class TestOnlineLadder:
    def test_fit_error_degrades_to_seasonal(self, week_box, config):
        with fault_plan(_plan(FaultRule("fit_error", 1.0))):
            result = OnlineAtmController(week_box, config).run()
        assert len(result.steps) == 4
        assert all(s.rung == RUNG_SEASONAL for s in result.steps)
        assert all("fit_error" in (s.reason or "") for s in result.steps)
        assert result.degradations
        assert {e.rung for e in result.degradations} == {RUNG_SEASONAL}
        assert np.isfinite(result.mean_ape())  # fallback still scores

    def test_double_fault_degrades_to_hold(self, week_box, config):
        plan = _plan(FaultRule("fit_error", 1.0), FaultRule("fallback_error", 1.0))
        with fault_plan(plan):
            result = OnlineAtmController(week_box, config).run()
        assert all(s.rung == RUNG_HOLD for s in result.steps)
        for step in result.steps:
            current = week_box.allocations(step.resource)
            assert np.array_equal(step.allocation, current)  # held, not resized
            assert step.tickets_atm == step.tickets_static
            assert np.isnan(step.ape)
        assert {e.rung for e in result.degradations} == {RUNG_SEASONAL, RUNG_HOLD}

    def test_nan_poison_survived_by_fallback(self, week_box, config):
        with fault_plan(_plan(FaultRule("nan_train", 1.0, fraction=0.3))):
            result = OnlineAtmController(week_box, config).run()
        # The primary fit rejects the poisoned slice; the sanitizing
        # seasonal fallback serves every step with finite predictions.
        assert all(s.rung == RUNG_SEASONAL for s in result.steps)
        assert np.isfinite(result.mean_ape())

    def test_no_faults_keeps_primary_rung(self, week_box, config):
        result = OnlineAtmController(week_box, config).run()
        assert all(s.rung == RUNG_PRIMARY for s in result.steps)
        assert not result.degradations


class TestOnlineFleet:
    def test_partial_results_on_box_error(self, config):
        fleet = generate_fleet(FleetConfig(n_boxes=3, days=7, seed=62))
        keys = [box.box_id for box in fleet]
        victim, probability = _selective_probability("box_error", keys, seed=9)

        clean = run_online_fleet(fleet, config)
        with fault_plan(_plan(FaultRule("box_error", probability), seed=9)):
            faulted = run_online_fleet(fleet, config)

        assert clean.report.ok and len(clean) == 3
        assert victim not in faulted
        assert faulted.report.failed_boxes == [victim]
        (event,) = [e for e in faulted.report.events if e.box_id == victim]
        assert event.rung == RUNG_FAILED and "box_error" in event.reason

        # Healthy boxes are bit-identical to the no-faults run.
        assert set(faulted) == set(keys) - {victim}
        for box_id in faulted:
            before, after = clean[box_id].steps, faulted[box_id].steps
            assert len(before) == len(after)
            for a, b in zip(before, after):
                assert np.array_equal(a.allocation, b.allocation)
                assert (a.tickets_static, a.tickets_atm) == (b.tickets_static, b.tickets_atm)
                assert a.ape == b.ape or (np.isnan(a.ape) and np.isnan(b.ape))

class TestPipelineLadder:
    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(FleetConfig(n_boxes=3, days=6, seed=17))

    def test_fit_error_falls_back_to_seasonal(self, fleet, config):
        with fault_plan(_plan(FaultRule("fit_error", 1.0))):
            result = run_fleet_atm(fleet, config)
        # Every box degraded but still produced a full accuracy record.
        assert len(result.accuracies) == 3
        assert len(result.report.degraded_boxes) == 3
        assert not result.report.failed_boxes
        assert {e.rung for e in result.report.events} == {RUNG_SEASONAL}

    def test_double_fault_reports_failed_boxes(self, fleet, config):
        plan = _plan(FaultRule("fit_error", 1.0), FaultRule("fallback_error", 1.0))
        with fault_plan(plan):
            result = run_fleet_atm(fleet, config)
        assert result.accuracies == []
        assert len(result.report.failed_boxes) == 3

    def test_partial_failure_keeps_healthy_boxes_identical(self, fleet, config):
        # Seed 5 makes the same box the lowest hash for both fault kinds,
        # so one probability kills its whole ladder while sparing the rest.
        keys = [box.box_id for box in fleet]
        victim, _ = _selective_probability("fit_error", keys, seed=5)
        assert victim == _selective_probability("fallback_error", keys, seed=5)[0]
        probability = max(
            faults._hash_unit(5, kind, victim)
            for kind in ("fit_error", "fallback_error")
        ) + 1e-9
        plan = _plan(
            FaultRule("fit_error", probability),
            FaultRule("fallback_error", probability),
            seed=5,
        )
        clean = run_fleet_atm(fleet, config)
        with fault_plan(plan):
            faulted = run_fleet_atm(fleet, config)
        assert faulted.report.failed_boxes == [victim]
        healthy_clean = [a for a in clean.accuracies if a.box_id != victim]
        assert len(faulted.accuracies) == 2
        for a, b in zip(healthy_clean, faulted.accuracies):
            assert a.box_id == b.box_id
            np.testing.assert_array_equal(a.ape, b.ape)  # NaN-aware exact
            np.testing.assert_array_equal(a.peak_ape, b.peak_ape)

class TestResizingSweep:
    def test_partial_results_on_box_error(self):
        fleet = generate_fleet(FleetConfig(n_boxes=3, days=1, seed=23))
        keys = [box.box_id for box in fleet]
        victim, probability = _selective_probability("box_error", keys, seed=2)
        policy = TicketPolicy(threshold_pct=60.0)

        clean = evaluate_fleet_resizing(fleet, policy, (ResizingAlgorithm.ATM,))
        with fault_plan(_plan(FaultRule("box_error", probability), seed=2)):
            faulted = evaluate_fleet_resizing(fleet, policy, (ResizingAlgorithm.ATM,))

        assert clean.report.ok
        assert faulted.report.failed_boxes == [victim]
        healthy_clean = [r for r in clean.results if r.box_id != victim]
        assert [r.box_id for r in faulted.results] == [r.box_id for r in healthy_clean]
        for a, b in zip(healthy_clean, faulted.results):
            assert (a.tickets_before, a.tickets_after) == (b.tickets_before, b.tickets_after)

class TestRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("nonsense", 1.0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("slow", 1.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule("fit_error", 1.5)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultRule("nan_train", 1.0, fraction=0.0)
