"""Exhaustive MCKP solver, kept as the exact solvers' and greedy's oracle.

Enumerating every choice vector is exact but exponential, so nothing in
production runs it: :func:`repro.resizing.exact.solve_dp` covers box-sized
instances.  The tests use it at lemma/unit-test scale to pin the DP's
optimum and the greedy's optimality gap.

Not collected as a test module (no ``test_`` prefix).  Importable from the
repository root as ``tests.resizing.mckp_oracle``.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.resizing.mckp import MckpInstance, MckpSolution

__all__ = ["solve_bruteforce"]

_MAX_BRUTEFORCE_COMBOS = 2_000_000


def solve_bruteforce(instance: MckpInstance) -> MckpSolution:
    """Exhaustively enumerate choice vectors; exact but exponential.

    Raises ``ValueError`` when the instance has more than ~2M combinations.
    """
    combos = 1
    for group in instance.groups:
        combos *= group.n_choices
        if combos > _MAX_BRUTEFORCE_COMBOS:
            raise ValueError(
                f"instance too large for brute force ({combos}+ combinations)"
            )
    best_choices: Optional[tuple] = None
    best_key = None
    for choices in itertools.product(*(range(g.n_choices) for g in instance.groups)):
        capacity = sum(
            g.capacities[c] for g, c in zip(instance.groups, choices)
        )
        if capacity > instance.capacity + 1e-9:
            continue
        tickets = instance.tickets_for(choices)
        key = (tickets, capacity)
        if best_key is None or key < best_key:
            best_key = key
            best_choices = choices
    if best_choices is None:
        # Nothing fits: report the all-smallest configuration as infeasible.
        fallback = tuple(g.n_choices - 1 for g in instance.groups)
        return MckpSolution(
            allocations=instance.allocation_for(fallback),
            choices=fallback,
            tickets=instance.tickets_for(fallback),
            feasible=False,
        )
    return MckpSolution(
        allocations=instance.allocation_for(best_choices),
        choices=best_choices,
        tickets=best_key[0],
        feasible=True,
    )
