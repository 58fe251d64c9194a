"""Exact MCKP solver for validating the greedy's optimality gap.

The paper mentions CPLEX as the standard MILP route; :func:`solve_dp`
plays that role at validation scale.  It is a dynamic program over a
discretized capacity grid, exact up to the grid resolution, and
comfortably handles box-sized instances.  Capacity costs round *up* onto
the grid, so the returned solution never violates the true budget (it may
be slightly conservative).  The exhaustive enumerator that pins its
optimum at unit-test scale lives with the tests
(``tests/resizing/mckp_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.resizing.mckp import MckpInstance, MckpSolution

__all__ = ["solve_dp"]


def solve_dp(instance: MckpInstance, grid_points: int = 2048) -> MckpSolution:
    """Dynamic program over a discretized capacity axis.

    Parameters
    ----------
    instance:
        The MCKP instance.
    grid_points:
        Number of capacity buckets; resolution is ``capacity / grid_points``.
        Group capacities are rounded *up* to buckets, so any solution found
        is feasible for the true budget.
    """
    if grid_points < 1:
        raise ValueError("grid_points must be positive")
    n = instance.n_vms
    unit = instance.capacity / grid_points
    # weights[g][v]: bucket cost of choice v in group g (rounded up).
    weights = [
        np.minimum(
            np.ceil(group.capacities / unit - 1e-12).astype(int), grid_points + 1
        )
        for group in instance.groups
    ]

    infinity = np.iinfo(np.int64).max // 4
    # dp[b] = min tickets achievable with budget b buckets, after processing
    # some prefix of groups; parent pointers rebuild the choices.
    dp = np.full(grid_points + 1, infinity, dtype=np.int64)
    dp[:] = 0  # zero groups -> zero tickets at any budget
    parents = []
    for g in range(n):
        group = instance.groups[g]
        new_dp = np.full(grid_points + 1, infinity, dtype=np.int64)
        choice_at = np.full(grid_points + 1, -1, dtype=np.int32)
        for v in range(group.n_choices):
            w = int(weights[g][v])
            if w > grid_points:
                continue
            t = int(group.tickets[v])
            # shifted[b] = dp[b - w] + t for b >= w
            candidate = dp[: grid_points + 1 - w] + t
            target = new_dp[w:]
            better = candidate < target
            if better.any():
                target[better] = candidate[better]
                choice_at[w:][better] = v
        parents.append(choice_at)
        dp = new_dp

    feasible_buckets = np.flatnonzero(dp < infinity)
    if feasible_buckets.size == 0:
        fallback = tuple(g.n_choices - 1 for g in instance.groups)
        return MckpSolution(
            allocations=instance.allocation_for(fallback),
            choices=fallback,
            tickets=instance.tickets_for(fallback),
            feasible=False,
        )
    best_bucket = int(feasible_buckets[np.argmin(dp[feasible_buckets])])
    # Prefer the smallest bucket among ties (least capacity used).
    best_value = int(dp[best_bucket])
    for b in feasible_buckets:
        if dp[b] == best_value:
            best_bucket = int(b)
            break

    # Walk parents backwards to recover choices.
    choices = [0] * n
    bucket = best_bucket
    for g in range(n - 1, -1, -1):
        v = int(parents[g][bucket])
        if v < 0:  # pragma: no cover - guarded by feasibility above
            raise RuntimeError("DP parent chain broken")
        choices[g] = v
        bucket -= int(weights[g][v])
    return MckpSolution(
        allocations=instance.allocation_for(tuple(choices)),
        choices=tuple(choices),
        tickets=instance.tickets_for(tuple(choices)),
        feasible=True,
    )
