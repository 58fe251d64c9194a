"""Tests for fleet resizing evaluation (repro.resizing.evaluate)."""

import numpy as np
import pytest

from repro.resizing.evaluate import (
    BoxReduction,
    FleetReduction,
    ResizingAlgorithm,
    evaluate_box_resizing,
    evaluate_fleet_resizing,
    redistribute_slack,
    reduction_percent,
    resize_allocation,
    size_box_resource,
)
from repro.resizing.problem import ResizingProblem, tickets_for_allocation
from repro.tickets.policy import TicketPolicy
from repro.trace.model import Resource
from tests.tickets.ticket_oracle import count_tickets_for_demand


class TestReductionPercent:
    def test_basic(self):
        assert reduction_percent(100, 40) == pytest.approx(60.0)

    def test_increase_is_negative(self):
        assert reduction_percent(10, 30) == pytest.approx(-200.0)

    def test_no_tickets_nan(self):
        assert np.isnan(reduction_percent(0, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            reduction_percent(-1, 0)

    def test_clipped_reduction(self):
        r = BoxReduction("b", Resource.CPU, ResizingAlgorithm.ATM, 10, 40, True)
        assert r.reduction == pytest.approx(-300.0)
        assert r.clipped_reduction == -100.0


class TestRedistributeSlack:
    def test_restores_toward_current(self):
        problem = ResizingProblem(
            demands=np.ones((2, 2)), capacity=10.0, upper_bounds=np.array([10.0, 10.0])
        )
        out = redistribute_slack(problem, np.array([1.0, 1.0]), current=np.array([4.0, 4.0]))
        assert np.all(out >= 4.0 - 1e-9)
        assert out.sum() <= 10.0 + 1e-9

    def test_partial_restore_when_tight(self):
        problem = ResizingProblem(demands=np.ones((2, 2)), capacity=5.0)
        out = redistribute_slack(problem, np.array([2.0, 2.0]), current=np.array([4.0, 4.0]))
        assert out.sum() == pytest.approx(5.0)

    def test_no_slack_no_change(self):
        problem = ResizingProblem(demands=np.ones((2, 2)), capacity=4.0)
        alloc = np.array([2.0, 2.0])
        assert redistribute_slack(problem, alloc, current=np.array([9.0, 9.0])) == pytest.approx(alloc)

    def test_spreads_surplus_without_current(self):
        problem = ResizingProblem(
            demands=np.ones((2, 2)), capacity=10.0, upper_bounds=np.array([10.0, 10.0])
        )
        out = redistribute_slack(problem, np.array([1.0, 1.0]))
        assert out.sum() == pytest.approx(10.0)


class TestResizeAllocation:
    def _problem(self, rng):
        demands = rng.uniform(0, 5, size=(3, 10))
        return ResizingProblem(
            demands=demands,
            capacity=40.0,
            alpha=0.6,
            lower_bounds=demands.max(axis=1),
        )

    @pytest.mark.parametrize("algorithm", list(ResizingAlgorithm))
    def test_all_algorithms_return_valid_allocations(self, rng, algorithm):
        problem = self._problem(rng)
        alloc, feasible = resize_allocation(
            problem, algorithm, epsilon=0.1, current=np.full(3, 5.0)
        )
        assert alloc.shape == (3,)
        assert np.all(np.isfinite(alloc))
        if feasible:
            assert alloc.sum() <= problem.capacity + 1e-6

    def test_atm_uses_epsilon(self, rng):
        problem = self._problem(rng)
        with_eps, _ = resize_allocation(problem, ResizingAlgorithm.ATM, epsilon=1.0)
        without, _ = resize_allocation(
            problem, ResizingAlgorithm.ATM_NO_DISCRETIZATION, epsilon=1.0
        )
        # ε rounds demands up -> never allocates less at the greedy stage.
        assert with_eps.sum() >= without.sum() - 1e-6


class TestBoxEvaluation:
    def test_oracle_resizing_eliminates_tickets(self, small_fleet):
        box = small_fleet.boxes[0]
        policy = TicketPolicy(60.0)
        results = evaluate_box_resizing(
            box,
            Resource.CPU,
            policy,
            [ResizingAlgorithm.ATM],
            eval_demands=box.demand_matrix(Resource.CPU)[:, :96],
        )
        result, _ = results[0]
        assert result.tickets_after <= result.tickets_before

    def test_sizing_vs_eval_demands_split(self, small_fleet):
        box = small_fleet.boxes[0]
        policy = TicketPolicy(60.0)
        eval_demands = box.demand_matrix(Resource.CPU)[:, :96]
        # Sizing with zero demands + lower bound zero starves everyone.
        sizing = np.zeros_like(eval_demands)
        results = evaluate_box_resizing(
            box,
            Resource.CPU,
            policy,
            [ResizingAlgorithm.STINGY],
            eval_demands=eval_demands,
            sizing_demands=sizing,
            lower_bounds=np.zeros(box.n_vms),
        )
        # Starved VMs: every nonzero-demand window tickets.
        result, allocation = results[0]
        assert result.tickets_after >= result.tickets_before
        assert np.all(allocation == 0.0)


class TestSizeBoxResource:
    """The one sizing step every ATM path goes through."""

    def test_each_reduction_scores_its_allocation(self, small_fleet):
        box = small_fleet.boxes[0]
        demands = box.demand_matrix(Resource.RAM)[:, :96]
        capacity = box.capacity(Resource.RAM)
        sized = evaluate_box_resizing(
            box, Resource.RAM, TicketPolicy(60.0), tuple(ResizingAlgorithm),
            eval_demands=demands,
        )
        truth = ResizingProblem(demands=demands, capacity=capacity, alpha=0.6)
        assert [r.algorithm for r, _ in sized] == list(ResizingAlgorithm)
        for reduction, allocation in sized:
            assert allocation.shape == (box.n_vms,)
            assert allocation.sum() <= capacity + 1e-6
            assert reduction.tickets_after == tickets_for_allocation(truth, allocation)
            assert reduction.tickets_before == tickets_for_allocation(
                truth, box.allocations(Resource.RAM)
            )

    def test_infeasible_holds_current_allocation(self):
        current = np.array([4.0, 4.0])
        [(reduction, allocation)] = size_box_resource(
            "b",
            Resource.CPU,
            current,
            10.0,
            TicketPolicy(60.0),
            (ResizingAlgorithm.ATM,),
            eval_demands=np.full((2, 4), 2.0),
            lower_bounds=np.array([6.0, 6.0]),  # 12 > capacity 10
        )
        assert not reduction.feasible
        assert allocation is current
        assert reduction.tickets_after == reduction.tickets_before

    @pytest.mark.parametrize("algorithm", list(ResizingAlgorithm))
    def test_non_finite_sizing_window_rejected(self, algorithm):
        sizing = np.full((2, 4), 2.0)
        sizing[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            size_box_resource(
                "b",
                Resource.CPU,
                np.array([5.0, 5.0]),
                10.0,
                TicketPolicy(60.0),
                (algorithm,),
                eval_demands=np.full((2, 4), 2.0),
                sizing_demands=sizing,
                lower_bounds=np.array([1.0, 1.0]),
            )


class TestIndependentTicketRecount:
    """Each reduction's ticket totals, recounted from the allocations it returns.

    The recount uses the scalar oracle ``count_tickets_for_demand`` (paper
    Eq. 6, one VM at a time), not ``tickets_for_allocation``, which is what
    :func:`size_box_resource` itself counts with.
    """

    @staticmethod
    def _recount(demands, allocation, policy):
        return sum(
            count_tickets_for_demand(series, capacity, policy)
            for series, capacity in zip(demands, allocation)
        )

    def _check(self, sized, current, capacity, eval_demands, policy):
        assert [r.algorithm for r, _ in sized] == list(ResizingAlgorithm)
        before = self._recount(eval_demands, current, policy)
        for reduction, allocation in sized:
            assert allocation.sum() <= capacity + 1e-6
            assert reduction.tickets_before == before
            assert reduction.tickets_after == self._recount(
                eval_demands, allocation, policy
            )

    @pytest.mark.parametrize("resource", list(Resource))
    def test_sample_fleet_oracle_sizing(self, small_fleet, resource):
        policy = TicketPolicy(60.0)
        for box in small_fleet.boxes:
            eval_demands = box.demand_matrix(resource)[:, :96]
            current = box.allocations(resource)
            capacity = box.capacity(resource)
            sized = size_box_resource(
                box.box_id, resource, current, capacity, policy,
                tuple(ResizingAlgorithm), eval_demands=eval_demands,
            )
            self._check(sized, current, capacity, eval_demands, policy)

    @pytest.mark.parametrize("resource", list(Resource))
    def test_sample_box_sized_on_the_previous_day(self, sample_box, resource):
        policy = TicketPolicy(70.0)
        demands = sample_box.demand_matrix(resource)
        current = sample_box.allocations(resource)
        capacity = sample_box.capacity(resource)
        eval_demands = demands[:, 5 * 96 : 6 * 96]
        sized = size_box_resource(
            sample_box.box_id, resource, current, capacity, policy,
            tuple(ResizingAlgorithm), eval_demands=eval_demands,
            sizing_demands=demands[:, 4 * 96 : 5 * 96],
        )
        self._check(sized, current, capacity, eval_demands, policy)

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_boxes(self, seed):
        rng = np.random.default_rng(seed)
        n_vms = int(rng.integers(2, 9))
        windows = int(rng.integers(4, 97))
        capacity = float(rng.uniform(8.0, 64.0))
        current = rng.dirichlet(np.ones(n_vms)) * capacity * rng.uniform(0.5, 1.0)
        scale = current[:, None] * rng.uniform(0.2, 1.6, size=(n_vms, 1))
        eval_demands = scale * rng.uniform(0.05, 1.0, size=(n_vms, windows))
        sizing = eval_demands * rng.uniform(0.7, 1.3, size=eval_demands.shape)
        policy = TicketPolicy(float(rng.choice([50.0, 60.0, 70.0, 80.0])))
        sized = size_box_resource(
            f"r{seed}", Resource.CPU, current, capacity, policy,
            tuple(ResizingAlgorithm), eval_demands=eval_demands,
            sizing_demands=sizing, epsilon_pct=float(rng.uniform(0.0, 10.0)),
        )
        self._check(sized, current, capacity, eval_demands, policy)


class TestFleetEvaluation:
    def test_summary_populated(self, small_fleet):
        reduction = evaluate_fleet_resizing(
            small_fleet,
            TicketPolicy(60.0),
            (ResizingAlgorithm.ATM, ResizingAlgorithm.STINGY),
            eval_windows=96,
        )
        atm_cpu = reduction.mean_reduction(Resource.CPU, ResizingAlgorithm.ATM)
        assert np.isfinite(atm_cpu)
        assert atm_cpu > reduction.mean_reduction(Resource.CPU, ResizingAlgorithm.STINGY)

    def test_totals(self, small_fleet):
        reduction = evaluate_fleet_resizing(
            small_fleet, TicketPolicy(60.0), (ResizingAlgorithm.ATM,), eval_windows=96
        )
        before, after = reduction.totals(Resource.CPU, ResizingAlgorithm.ATM)
        assert before >= after >= 0

    def test_missing_algorithm_nan(self):
        empty = FleetReduction()
        assert np.isnan(empty.mean_reduction(Resource.CPU, ResizingAlgorithm.ATM))
