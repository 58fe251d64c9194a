"""Lemma 4.1 transform: resizing problem → multi-choice knapsack (MCKP).

Lemma 4.1 shows the optimal *effective* capacity ``alpha * C_i`` of every VM
lies in its set of (unique) demand values, or is zero.  So each VM becomes a
*group* of candidate capacities with precomputed ticket counts, and exactly
one candidate must be picked per group subject to the capacity budget —
a multi-choice knapsack problem.

The ε *discretization factor* rounds demand values up to multiples of ε
before deduplication, which (i) shrinks the candidate sets — fewer integer
variables — and (ii) adds a safety margin, because capacities only ever
round up (the paper: "rounding up demands makes the resizing algorithm more
aggressive in allocating resources").

Paper ambiguity note (see DESIGN.md): the paper's running example treats the
chosen demand value as the effective capacity (tickets fire when demand
exceeds the value itself), while constraint (9) budgets the raw values.  This
module builds the self-consistent reading only — candidates are effective
capacities and the *allocated* capacity is ``candidate / alpha``.  The
paper's literal R' (allocated capacity equals the demand value) lives in the
test oracle ``tests/resizing/mckp_oracle.py`` as its ``literal_formulation``
switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.resizing.problem import TICKET_TOLERANCE, ResizingProblem

__all__ = ["MckpGroup", "MckpInstance", "MckpSolution", "build_mckp"]


@dataclass(frozen=True)
class MckpGroup:
    """Candidate capacities of one VM, sorted by decreasing capacity.

    ``tickets[v]`` is the ticket count if ``capacities[v]`` is allocated;
    by construction it is non-decreasing along the array.  The
    :class:`MckpInstance` holding the group checks both orders.
    """

    vm_index: int
    capacities: np.ndarray
    tickets: np.ndarray

    @property
    def n_choices(self) -> int:
        return self.capacities.size


@dataclass
class MckpInstance:
    """The transformed problem R': groups, one pick each, capacity budget."""

    groups: List[MckpGroup]
    capacity: float

    def __post_init__(self) -> None:
        """Check every group's invariants at once, over the concatenated groups."""
        for group in self.groups:
            caps, tickets = group.capacities, group.tickets
            if caps.ndim != 1 or caps.shape != tickets.shape:
                raise ValueError("capacities and tickets must be 1-D and aligned")
            if caps.size == 0:
                raise ValueError(f"group {group.vm_index} has no candidates")
        if not self.groups:
            return
        caps = np.concatenate([g.capacities for g in self.groups])
        tickets = np.concatenate([g.tickets for g in self.groups])
        # Differences inside a group: drop the one across each boundary.
        inner = np.ones(caps.size - 1, dtype=bool)
        inner[np.cumsum([g.capacities.size for g in self.groups])[:-1] - 1] = False
        if np.any(np.diff(caps)[inner] >= 0):
            raise ValueError("capacities must be strictly decreasing")
        if np.any(np.diff(tickets)[inner] < 0):
            raise ValueError("tickets must be non-decreasing as capacity shrinks")

    @property
    def n_vms(self) -> int:
        return len(self.groups)

    @property
    def n_variables(self) -> int:
        """Total number of binary choice variables Y_{i,v}."""
        return sum(g.n_choices for g in self.groups)

    def min_total_capacity(self) -> float:
        return float(sum(g.capacities[-1] for g in self.groups))

    def max_total_capacity(self) -> float:
        return float(sum(g.capacities[0] for g in self.groups))

    @property
    def feasible(self) -> bool:
        return self.min_total_capacity() <= self.capacity + 1e-9

    def allocation_for(self, choices: Sequence[int]) -> np.ndarray:
        """Map per-group choice indices to a capacity allocation vector."""
        if len(choices) != self.n_vms:
            raise ValueError(f"need {self.n_vms} choices, got {len(choices)}")
        return np.array(
            [g.capacities[c] for g, c in zip(self.groups, choices)], dtype=float
        )

    def tickets_for(self, choices: Sequence[int]) -> int:
        """Objective value of a choice vector."""
        return int(sum(g.tickets[c] for g, c in zip(self.groups, choices)))


@dataclass(frozen=True)
class MckpSolution:
    """Result of an MCKP solver run."""

    allocations: np.ndarray
    choices: tuple
    tickets: int
    feasible: bool
    iterations: int = 0


def build_mckp(
    problem: ResizingProblem,
    epsilon: Union[float, Sequence[float]] = 0.0,
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

    Every VM's group is built at once, as one row of an ``(M, T + 1)``
    candidate matrix: the VM's demand values above the tolerance, rounded
    up to its ε, then one 0 column; clipped to the VM's bounds; sorted;
    adjacent duplicates dropped.
    """
    m, t = problem.demands.shape
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim == 0:
        eps = np.full(m, float(eps))
    if eps.shape != (m,):
        raise ValueError(f"epsilon must be scalar or shape ({m},), got {eps.shape}")
    if np.any(eps < 0):
        raise ValueError("epsilon must be non-negative")

    demands = problem.demands
    # Candidate effective capacities: the demand values, rounded up to
    # multiples of ε where ε > 0.  A value at or below the tolerance is
    # not a candidate; it becomes 0, which the appended "give it nothing"
    # candidate duplicates anyway (and which clipping lifts to the lower
    # bound, the real floor).
    rounded = demands.copy()
    scaled = eps > 0
    if scaled.any():
        step = eps[scaled, None]
        rounded[scaled] = np.ceil(demands[scaled] / step - 1e-12) * step
    candidates = np.zeros((m, t + 1))
    np.copyto(candidates[:, :t], rounded, where=demands > TICKET_TOLERANCE)
    candidates /= problem.alpha
    # Clip to the VM's bounds, as min(max(c, lower), upper).  A candidate
    # equal to a bound keeps its own value, down to the sign of a zero
    # (``np.clip``'s choice there varies with its code path).
    lower = problem.lower_bounds[:, None]
    upper = problem.upper_bounds[:, None]
    candidates = np.where(candidates < lower, lower, candidates)
    candidates = np.where(candidates > upper, upper, candidates)
    candidates.sort(axis=1)
    keep = np.empty(candidates.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(candidates[:, 1:], candidates[:, :-1], out=keep[:, 1:])
    # Row by row, largest first: each VM's distinct candidates, in order.
    caps = candidates[:, ::-1][keep[:, ::-1]]
    rows = np.repeat(np.arange(m), keep.sum(axis=1))

    # Ticket threshold per candidate: the allocated capacity is
    # candidate/alpha, so a ticket fires above alpha * capacity.
    thresholds = np.where(
        caps > 0, problem.alpha * caps + TICKET_TOLERANCE, TICKET_TOLERANCE
    )
    # count(demands > t) == T - (demands <= t), counted by one searchsorted
    # for every row: (row, value) pairs as complex numbers sort row first,
    # then by value, so each row's sorted demands are one block of a
    # single sorted key array.
    keys = np.empty((m, t), dtype=complex)
    keys.real = np.arange(m)[:, None]
    keys.imag = np.sort(demands, axis=1)
    queries = np.empty(caps.size, dtype=complex)
    queries.real = rows
    queries.imag = thresholds
    tickets = (rows + 1) * t - np.searchsorted(keys.ravel(), queries, side="right")

    # Candidates with equal ticket counts are kept: stepping between them
    # is a zero-MTRV move the greedy takes first when the budget binds,
    # and retaining the larger capacities preserves the safety margin
    # when it does not.
    bounds = np.cumsum(keep.sum(axis=1))[:-1]
    groups = [
        MckpGroup(vm_index=i, capacities=c, tickets=k)
        for i, (c, k) in enumerate(zip(np.split(caps, bounds), np.split(tickets, bounds)))
    ]
    return MckpInstance(groups=groups, capacity=problem.capacity)
