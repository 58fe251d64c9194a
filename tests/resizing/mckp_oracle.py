"""MCKP oracles: the exhaustive solver and the VM-by-VM transform.

Enumerating every choice vector is exact but exponential, so nothing in
production runs it: :func:`repro.resizing.exact.solve_dp` covers box-sized
instances.  The tests use it at lemma/unit-test scale to pin the DP's
optimum and the greedy's optimality gap.

:func:`build_mckp` and :func:`per_vm_tickets` are the loop-per-VM forms
of the Lemma 4.1 transform and of the per-VM ticket count, as production
ran them before both were built from whole ``(M, T)`` arrays; the tests
hold the array forms equal to them, candidate for candidate.

Not collected as a test module (no ``test_`` prefix).  Importable from the
repository root as ``tests.resizing.mckp_oracle``.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.resizing.mckp import MckpGroup, MckpInstance, MckpSolution
from repro.resizing.problem import TICKET_TOLERANCE, ResizingProblem

__all__ = ["build_mckp", "per_vm_tickets", "solve_bruteforce"]

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


def _unique_descending(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, largest first.

    Equal to ``np.unique(values)[::-1]`` for NaN-free input, down to which
    of ``-0.0``/``0.0`` survives: it is the same sort followed by the same
    drop-adjacent-duplicates mask.  ``np.unique`` itself probes
    ``np.ma.is_masked`` and so imports ``numpy.ma`` (~16 ms) on first use.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep][::-1]


def _round_up(values: np.ndarray, epsilon: float) -> np.ndarray:
    if epsilon <= 0:
        return values
    return np.ceil(values / epsilon - 1e-12) * epsilon


def build_mckp(
    problem: ResizingProblem,
    epsilon: Union[float, Sequence[float]] = 0.0,
    literal_formulation: bool = False,
) -> MckpInstance:
    """Build the MCKP instance from a resizing problem.

    Parameters
    ----------
    problem:
        The resizing problem R.
    epsilon:
        Discretization factor in demand units — scalar, or one value per VM
        (the fleet evaluator passes per-VM values equal to ε% of current
        capacity so the granularity matches each VM's scale).  Zero disables
        discretization ("ATM w/o discretizing" in Fig. 8).
    literal_formulation:
        Use the paper's literal R' (allocated capacity = demand value)
        instead of the self-consistent effective-capacity reading.
    """
    m = problem.n_vms
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim == 0:
        eps = np.full(m, float(eps))
    if eps.shape != (m,):
        raise ValueError(f"epsilon must be scalar or shape ({m},), got {eps.shape}")
    if np.any(eps < 0):
        raise ValueError("epsilon must be non-negative")

    groups: List[MckpGroup] = []
    for i in range(m):
        demands = problem.demands[i]
        rounded = _round_up(demands[demands > TICKET_TOLERANCE], eps[i])
        # Candidate effective capacities: unique demand values plus 0.
        effective = _unique_descending(rounded)
        if literal_formulation:
            caps = effective.copy()
        else:
            caps = effective / problem.alpha
        # Apply bounds, keep 0 as the "give it nothing" candidate (clamped to
        # the lower bound, which is the real floor).
        caps = np.append(caps, 0.0)
        caps = np.clip(caps, problem.lower_bounds[i], problem.upper_bounds[i])
        caps = _unique_descending(caps)
        # Ticket threshold per candidate: in the literal paper formulation
        # the chosen demand value acts as the effective capacity itself (the
        # running example counts D > D'_v), while the self-consistent
        # reading allocates candidate/alpha so alpha * capacity applies.
        threshold_factor = 1.0 if literal_formulation else problem.alpha
        # count(demands > t) == n - searchsorted(sorted, t, 'right'): one
        # O(W log W) sort per VM instead of an O(candidates x W) scan.
        thresholds = np.where(
            caps > 0, threshold_factor * caps + TICKET_TOLERANCE, TICKET_TOLERANCE
        )
        sorted_demands = np.sort(demands)
        tickets = (
            demands.size - np.searchsorted(sorted_demands, thresholds, side="right")
        ).astype(int)
        # Candidates with equal ticket counts are kept: stepping between them
        # is a zero-MTRV move the greedy takes first when the budget binds,
        # and retaining the larger capacities preserves the safety margin
        # when it does not.
        groups.append(MckpGroup(vm_index=i, capacities=caps, tickets=tickets))
    return MckpInstance(groups=groups, capacity=problem.capacity)


def per_vm_tickets(
    problem: ResizingProblem, allocation: Sequence[float]
) -> np.ndarray:
    """Ticket count per VM for a given allocation.

    VMs with a non-positive allocation get a ticket for every window with
    non-zero demand (they are starved).
    """
    alloc = np.asarray(allocation, dtype=float)
    if alloc.shape != (problem.n_vms,):
        raise ValueError(
            f"allocation must have shape ({problem.n_vms},), got {alloc.shape}"
        )
    thresholds = problem.alpha * alloc
    counts = np.empty(problem.n_vms, dtype=int)
    for i in range(problem.n_vms):
        if alloc[i] <= 0:
            counts[i] = int((problem.demands[i] > TICKET_TOLERANCE).sum())
        else:
            counts[i] = int(
                (problem.demands[i] > thresholds[i] + TICKET_TOLERANCE).sum()
            )
    return counts
