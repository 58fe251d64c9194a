"""Tests for the greedy MTRV solver (repro.resizing.greedy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resizing.greedy import mtrv, solve_greedy
from repro.resizing.mckp import build_mckp
from repro.resizing.problem import ResizingProblem
from tests.resizing.mckp_oracle import solve_bruteforce


def random_problem(rng, m=3, t=8, capacity_scale=1.0):
    demands = rng.uniform(0.0, 10.0, size=(m, t))
    capacity = capacity_scale * demands.max(axis=1).sum() / 0.6
    return ResizingProblem(demands=demands, capacity=max(capacity, 1.0), alpha=0.6)


class TestGreedyBasics:
    def test_abundant_capacity_zero_tickets(self, rng):
        problem = random_problem(rng, capacity_scale=2.0)
        solution = solve_greedy(build_mckp(problem))
        assert solution.feasible
        assert solution.tickets == 0
        assert solution.allocations.sum() <= problem.capacity + 1e-9

    def test_budget_respected_when_binding(self, rng):
        problem = random_problem(rng, capacity_scale=0.5)
        solution = solve_greedy(build_mckp(problem))
        assert solution.feasible
        assert solution.allocations.sum() <= problem.capacity + 1e-9
        assert solution.tickets >= 0

    def test_infeasible_bounds_flagged(self):
        problem = ResizingProblem(
            demands=np.array([[5.0], [5.0]]),
            capacity=3.0,
            alpha=0.5,
            lower_bounds=np.array([2.0, 2.0]),
        )
        solution = solve_greedy(build_mckp(problem))
        assert not solution.feasible

    def test_iterations_reported(self, rng):
        problem = random_problem(rng, capacity_scale=0.4)
        solution = solve_greedy(build_mckp(problem))
        assert solution.iterations > 0

    def test_deterministic(self, rng):
        problem = random_problem(rng, capacity_scale=0.7)
        instance = build_mckp(problem)
        a = solve_greedy(instance)
        b = solve_greedy(instance)
        assert a.choices == b.choices


class TestMtrv:
    def test_definition(self):
        problem = ResizingProblem(
            demands=np.array([[10.0, 8.0, 6.0]]), capacity=100.0, alpha=0.5
        )
        instance = build_mckp(problem)
        group = instance.groups[0]
        value = mtrv(instance, 0, 0)
        expected = (group.tickets[1] - group.tickets[0]) / (
            group.capacities[0] - group.capacities[1]
        )
        assert value == pytest.approx(expected)

    def test_last_choice_cannot_step(self):
        problem = ResizingProblem(demands=np.array([[1.0]]), capacity=10.0)
        instance = build_mckp(problem)
        last = instance.groups[0].n_choices - 1
        with pytest.raises(IndexError):
            mtrv(instance, 0, last)


class TestGreedyVsExact:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.3, 1.5))
    def test_near_optimal_on_random_instances(self, seed, scale):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, m=3, t=5, capacity_scale=scale)
        instance = build_mckp(problem)
        greedy = solve_greedy(instance)
        exact = solve_bruteforce(instance)
        if not (greedy.feasible and exact.feasible):
            assert greedy.feasible == exact.feasible
            return
        # The greedy is a heuristic: never better than exact, and on tiny
        # adversarially tight instances it may pay a handful of tickets.
        assert greedy.tickets >= exact.tickets
        assert greedy.tickets - exact.tickets <= 6

    def test_mostly_exact(self, rng):
        """At realistic capacity levels the greedy is usually exactly optimal."""
        optimal = 0
        total = 40
        for k in range(total):
            local = np.random.default_rng(k)
            problem = random_problem(local, m=3, t=5, capacity_scale=0.9)
            instance = build_mckp(problem)
            greedy = solve_greedy(instance)
            exact = solve_bruteforce(instance)
            if greedy.feasible and exact.feasible and greedy.tickets == exact.tickets:
                optimal += 1
        assert optimal >= 0.7 * total
