"""Tests for the resizing problem (repro.resizing.problem)."""

import numpy as np
import pytest

from repro.resizing.greedy import solve_greedy
from repro.resizing.mckp import build_mckp
from repro.resizing.problem import ResizingProblem, per_vm_tickets, tickets_for_allocation


@pytest.fixture()
def problem():
    demands = np.array(
        [
            [3.0, 3.0, 4.0, 6.0],
            [1.0, 1.0, 1.0, 1.0],
        ]
    )
    return ResizingProblem(demands=demands, capacity=20.0, alpha=0.6)


class TestValidation:
    def test_defaults(self, problem):
        assert problem.n_vms == 2
        assert problem.n_windows == 4
        assert problem.lower_bounds == pytest.approx([0.0, 0.0])
        assert problem.upper_bounds == pytest.approx([20.0, 20.0])

    def test_rejects_1d_demands(self):
        with pytest.raises(ValueError):
            ResizingProblem(demands=np.ones(3), capacity=1.0)

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            ResizingProblem(demands=np.array([[-1.0]]), capacity=1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ResizingProblem(demands=np.ones((1, 2)), capacity=1.0, alpha=1.0)

    def test_rejects_bad_bound_shapes(self):
        with pytest.raises(ValueError):
            ResizingProblem(
                demands=np.ones((2, 2)), capacity=1.0, lower_bounds=np.ones(3)
            )

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            ResizingProblem(
                demands=np.ones((1, 2)),
                capacity=10.0,
                lower_bounds=np.array([5.0]),
                upper_bounds=np.array([2.0]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["demands", "capacity", "lower_bounds", "upper_bounds"]
    )
    def test_rejects_non_finite(self, field, bad):
        kwargs = {
            "demands": np.array([[1.0, 2.0], [3.0, 4.0]]),
            "capacity": 10.0,
            "lower_bounds": np.array([1.0, 1.0]),
            "upper_bounds": np.array([10.0, 10.0]),
        }
        if field == "capacity":
            kwargs[field] = bad
        else:
            kwargs[field][0] = bad
        with pytest.raises(ValueError, match="finite"):
            ResizingProblem(**kwargs)

    def test_bounds_feasibility(self):
        # Lower bounds over the budget: the solver reports no feasible sizing.
        p = ResizingProblem(
            demands=np.ones((2, 2)), capacity=3.0, lower_bounds=np.array([2.0, 2.0])
        )
        assert not solve_greedy(build_mckp(p)).feasible


class TestTickets:
    def test_indicator_semantics(self, problem):
        # alpha*C = 0.6*5 = 3: demands strictly above 3 ticket.
        counts = per_vm_tickets(problem, [5.0, 5.0])
        assert counts.tolist() == [2, 0]  # windows with 4 and 6

    def test_boundary_not_ticketed(self, problem):
        # alpha*C = 3.0 exactly: 'demand == threshold' is not a violation.
        counts = per_vm_tickets(problem, [5.0, 100.0])
        assert counts[0] == 2

    def test_zero_allocation_all_windows(self, problem):
        counts = per_vm_tickets(problem, [0.0, 10.0])
        assert counts[0] == 4

    def test_total(self, problem):
        assert tickets_for_allocation(problem, [5.0, 5.0]) == 2

    def test_generous_allocation_zero(self, problem):
        assert tickets_for_allocation(problem, [20.0, 20.0]) == 0

    def test_monotone_in_allocation(self, problem):
        small = tickets_for_allocation(problem, [4.0, 1.0])
        large = tickets_for_allocation(problem, [8.0, 2.0])
        assert large <= small

    def test_wrong_shape_rejected(self, problem):
        with pytest.raises(ValueError):
            per_vm_tickets(problem, [1.0])


class TestFeasibility:
    def test_is_feasible(self, problem):
        # The solver's allocation lies in the bound box and within budget.
        solution = solve_greedy(build_mckp(problem))
        alloc = solution.allocations
        assert solution.feasible and alloc.shape == (problem.n_vms,)
        assert np.all(alloc >= problem.lower_bounds - 1e-6)
        assert np.all(alloc <= problem.upper_bounds + 1e-6)
        assert alloc.sum() <= problem.capacity + 1e-6

    def test_clamp(self):
        p = ResizingProblem(
            demands=np.ones((2, 2)),
            capacity=10.0,
            lower_bounds=np.array([1.0, 1.0]),
            upper_bounds=np.array([4.0, 4.0]),
        )
        assert p.clamp([0.0, 9.0]) == pytest.approx([1.0, 4.0])
