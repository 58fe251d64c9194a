"""Ticket oracles: scalar recounts and the record-by-record extraction.

Production counts tickets in bulk: :func:`repro.tickets.monitor.ticket_matrix`
for usage, and :func:`repro.resizing.problem.tickets_for_allocation` (or the
MCKP's per-choice ticket vectors) for demand under an allocation.  These
helpers restate the paper's indicator ``sum_t [ D_t > alpha * C ]`` (Eq. 6)
one series at a time, so tests can recount a result from its usage or from
its returned allocation without going through the code that produced it.

:func:`tickets_for_box` is the record-by-record form of
:func:`repro.tickets.monitor.tickets_for_box`, as production ran it
before the records were built from sorted columns: one record per hit,
then a Python sort on ``(window, vm_id, resource value)``.

Not collected as a test module (no ``test_`` prefix).  Importable from the
repository root as ``tests.tickets.ticket_oracle``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.tickets.monitor import TicketRecord, ticket_matrix
from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, Resource

__all__ = ["count_tickets", "count_tickets_for_demand", "tickets_for_box"]


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


def tickets_for_box(box: BoxTrace, policy: TicketPolicy) -> List[TicketRecord]:
    """Materialize every ticket issued on a box as :class:`TicketRecord`.

    Useful for event-level inspection and for the examples; aggregate
    analyses should prefer the count helpers, which avoid building objects.
    """
    records: List[TicketRecord] = []
    for resource in (Resource.CPU, Resource.RAM):
        usage = box.usage_matrix(resource)
        # Derive hits from the one indicator implementation (Eq. 6) rather
        # than re-stating the comparison inline, so threshold semantics
        # live in a single place.
        hits = np.argwhere(ticket_matrix(usage, policy))
        for vm_idx, window in hits:
            records.append(
                TicketRecord(
                    box_id=box.box_id,
                    vm_id=box.vm_ids[vm_idx],
                    resource=resource,
                    window=int(window),
                    usage_pct=float(usage[vm_idx, window]),
                )
            )
    records.sort(key=lambda r: (r.window, r.vm_id, r.resource.value))
    return records
