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
exceeds the value itself), while constraint (9) budgets the raw values.  The
default here is the self-consistent reading — candidates are effective
capacities and the *allocated* capacity is ``candidate / alpha``.  Passing
``literal_formulation=True`` reproduces the paper's literal R' instead
(allocated capacity equals the demand value).
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
    by construction it is non-decreasing along the array.
    """

    vm_index: int
    capacities: np.ndarray
    tickets: np.ndarray

    def __post_init__(self) -> None:
        if self.capacities.ndim != 1 or self.capacities.shape != self.tickets.shape:
            raise ValueError("capacities and tickets must be 1-D and aligned")
        if self.capacities.size == 0:
            raise ValueError(f"group {self.vm_index} has no candidates")
        if np.any(np.diff(self.capacities) >= 0):
            raise ValueError("capacities must be strictly decreasing")
        if np.any(np.diff(self.tickets) < 0):
            raise ValueError("tickets must be non-decreasing as capacity shrinks")

    @property
    def n_choices(self) -> int:
        return self.capacities.size


@dataclass
class MckpInstance:
    """The transformed problem R': groups, one pick each, capacity budget."""

    groups: List[MckpGroup]
    capacity: float

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
