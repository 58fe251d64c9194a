"""Scalar ticket counts, kept as the independent recount of ticket totals.

Production counts tickets in bulk: :func:`repro.tickets.monitor.ticket_matrix`
for usage, and :func:`repro.resizing.problem.tickets_for_allocation` (or the
MCKP's per-choice ticket vectors) for demand under an allocation.  These
helpers restate the paper's indicator ``sum_t [ D_t > alpha * C ]`` (Eq. 6)
one series at a time, so tests can recount a result from its usage or from
its returned allocation without going through the code that produced it.

Not collected as a test module (no ``test_`` prefix).  Importable from the
repository root as ``tests.tickets.ticket_oracle``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tickets.monitor import ticket_matrix
from repro.tickets.policy import TicketPolicy

__all__ = ["count_tickets", "count_tickets_for_demand"]


def count_tickets(usage: np.ndarray, policy: TicketPolicy) -> int:
    """Return the total number of tickets in a usage matrix."""
    return int(ticket_matrix(usage, policy).sum())


def count_tickets_for_demand(
    demand: Sequence[float], capacity: float, policy: TicketPolicy
) -> int:
    """Count tickets of one demand series under an allocated capacity.

    Implements ``sum_t [ D_t > alpha * C ]`` — the objective term of the
    resizing problem R.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    d = np.asarray(demand, dtype=float)
    return int((d > policy.alpha * capacity).sum())
