"""Tests for the exact DP solver (repro.resizing.exact) and its brute-force oracle."""

import numpy as np
import pytest

from repro.resizing.exact import solve_dp
from repro.resizing.mckp import build_mckp
from repro.resizing.problem import ResizingProblem
from tests.resizing.mckp_oracle import solve_bruteforce


def small_problem(rng, m=3, t=5, scale=0.7):
    demands = rng.uniform(0.0, 10.0, size=(m, t))
    capacity = scale * demands.max(axis=1).sum() / 0.6
    return ResizingProblem(demands=demands, capacity=max(capacity, 1.0), alpha=0.6)


class TestBruteForce:
    def test_budget_respected(self, rng):
        instance = build_mckp(small_problem(rng))
        solution = solve_bruteforce(instance)
        assert solution.feasible
        assert solution.allocations.sum() <= instance.capacity + 1e-9

    def test_returns_global_minimum(self, rng):
        instance = build_mckp(small_problem(rng, m=2, t=4))
        solution = solve_bruteforce(instance)
        import itertools

        best = min(
            instance.tickets_for(c)
            for c in itertools.product(*(range(g.n_choices) for g in instance.groups))
            if sum(g.capacities[i] for g, i in zip(instance.groups, c))
            <= instance.capacity + 1e-9
        )
        assert solution.tickets == best

    def test_infeasible_instance(self):
        problem = ResizingProblem(
            demands=np.array([[5.0]]),
            capacity=1.0,
            alpha=0.5,
            lower_bounds=np.array([4.0]),
            upper_bounds=np.array([6.0]),
        )
        solution = solve_bruteforce(build_mckp(problem))
        assert not solution.feasible

    def test_size_limit(self, rng):
        demands = rng.uniform(0, 10, size=(10, 90))
        problem = ResizingProblem(demands=demands, capacity=100.0)
        with pytest.raises(ValueError, match="too large"):
            solve_bruteforce(build_mckp(problem))


class TestDp:
    def test_matches_bruteforce(self, rng):
        for k in range(15):
            local = np.random.default_rng(k)
            instance = build_mckp(small_problem(local, scale=0.5 + 0.1 * (k % 5)))
            brute = solve_bruteforce(instance)
            dp = solve_dp(instance, grid_points=4096)
            assert dp.feasible == brute.feasible
            if brute.feasible:
                # DP rounds capacities up onto the grid, so it may be off by
                # at most a grid-resolution artifact; with 4096 buckets it
                # should match on these tiny instances.
                assert dp.tickets == brute.tickets

    def test_budget_respected(self, rng):
        instance = build_mckp(small_problem(rng))
        solution = solve_dp(instance)
        assert solution.allocations.sum() <= instance.capacity + 1e-9

    def test_grid_validation(self, rng):
        instance = build_mckp(small_problem(rng))
        with pytest.raises(ValueError):
            solve_dp(instance, grid_points=0)

    def test_coarse_grid_still_feasible(self, rng):
        instance = build_mckp(small_problem(rng))
        solution = solve_dp(instance, grid_points=16)
        if solution.feasible:
            assert solution.allocations.sum() <= instance.capacity + 1e-9

    def test_infeasible_instance(self):
        problem = ResizingProblem(
            demands=np.array([[5.0]]),
            capacity=1.0,
            alpha=0.5,
            lower_bounds=np.array([4.0]),
            upper_bounds=np.array([6.0]),
        )
        solution = solve_dp(build_mckp(problem))
        assert not solution.feasible
