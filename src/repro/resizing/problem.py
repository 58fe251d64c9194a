"""The ticket-minimization problem R (paper Eqs. 4-7).

For one box and one resource: choose per-VM capacities ``C_i`` with
``sum_i C_i <= C`` minimizing ``sum_{i,t} I_{i,t}`` where ``I_{i,t} = 1``
iff ``D_{i,t} > alpha * C_i``.

Practical bounds (Section IV-A.1):

* a *lower bound* per VM so the peak demand of the previous window is still
  satisfied after resizing (no spillover of unfinished work), and
* an *upper bound* — a VM cannot be allocated more than the box offers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["ResizingProblem", "tickets_for_allocation", "per_vm_tickets"]

#: Strict-inequality slack: demand counts as a violation only when it
#: exceeds the threshold by more than this, making "capacity equal to the
#: (scaled) demand value" safely ticket-free as Lemma 4.1 assumes.
TICKET_TOLERANCE = 1e-9


@dataclass
class ResizingProblem:
    """One box, one resource: demands, budget and bounds.

    Attributes
    ----------
    demands:
        ``(M, T)`` demand matrix over the resizing window, absolute units
        (GHz or GB).
    capacity:
        The box's total allocatable capacity ``C``.
    alpha:
        Ticket threshold as a fraction (0.6 for the 60% policy).
    lower_bounds / upper_bounds:
        Optional per-VM capacity bounds; default 0 and ``capacity``.
    """

    demands: np.ndarray
    capacity: float
    alpha: float = 0.6
    lower_bounds: Optional[np.ndarray] = None
    upper_bounds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.demands = np.asarray(self.demands, dtype=float)
        if self.demands.ndim != 2:
            raise ValueError(f"demands must be (M, T), got shape {self.demands.shape}")
        if self.demands.shape[0] < 1 or self.demands.shape[1] < 1:
            raise ValueError("demands must be non-empty")
        if not np.all(np.isfinite(self.demands)):
            raise ValueError("demands must be finite")
        if np.any(self.demands < -TICKET_TOLERANCE):
            raise ValueError("demands must be non-negative")
        if not (np.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError(f"capacity must be positive and finite, got {self.capacity}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        m = self.n_vms
        if self.lower_bounds is None:
            self.lower_bounds = np.zeros(m)
        else:
            self.lower_bounds = np.asarray(self.lower_bounds, dtype=float)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(m, self.capacity)
        else:
            self.upper_bounds = np.asarray(self.upper_bounds, dtype=float)
        for name, arr in (("lower_bounds", self.lower_bounds), ("upper_bounds", self.upper_bounds)):
            if arr.shape != (m,):
                raise ValueError(f"{name} must have shape ({m},), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(self.lower_bounds < 0):
            raise ValueError("lower bounds must be non-negative")
        if np.any(self.upper_bounds < self.lower_bounds - TICKET_TOLERANCE):
            raise ValueError("upper bounds must dominate lower bounds")

    @property
    def n_vms(self) -> int:
        return self.demands.shape[0]

    @property
    def n_windows(self) -> int:
        return self.demands.shape[1]

    def clamp(self, allocation: Sequence[float]) -> np.ndarray:
        """Project an allocation into the per-VM bound box (not the budget)."""
        alloc = np.asarray(allocation, dtype=float)
        return np.clip(alloc, self.lower_bounds, self.upper_bounds)


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
    thresholds = np.where(
        alloc <= 0, TICKET_TOLERANCE, problem.alpha * alloc + TICKET_TOLERANCE
    )
    return (problem.demands > thresholds[:, None]).sum(axis=1)


def tickets_for_allocation(
    problem: ResizingProblem, allocation: Sequence[float]
) -> int:
    """Total tickets on the box for an allocation (objective of problem R)."""
    return int(per_vm_tickets(problem, allocation).sum())
