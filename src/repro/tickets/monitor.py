"""Ticket extraction: turn usage series into ticket events and counts.

The monitor implements the semantics of the paper's indicator variable
``I_{i,t}`` (Eq. 6): VM ``i`` receives a ticket in window ``t`` when its
demand exceeds ``alpha * C_i`` — equivalently, when its utilization exceeds
the threshold percentage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, Resource

__all__ = [
    "TicketRecord",
    "ticket_matrix",
    "tickets_for_box",
    "per_vm_ticket_counts",
]


@dataclass(frozen=True)
class TicketRecord:
    """One issued usage ticket."""

    box_id: str
    vm_id: str
    resource: Resource
    window: int
    usage_pct: float


def ticket_matrix(
    usage: np.ndarray, policy: TicketPolicy
) -> np.ndarray:
    """Return the boolean indicator matrix ``I`` for a usage matrix.

    ``usage`` is ``(M, T)`` in percent; entry ``[i, t]`` is true when VM
    ``i`` gets a ticket in window ``t``.
    """
    arr = np.asarray(usage, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"usage must be 1-D or 2-D, got shape {arr.shape}")
    return arr > policy.threshold_pct


def per_vm_ticket_counts(
    box: BoxTrace, resource: Resource, policy: TicketPolicy
) -> np.ndarray:
    """Return the per-VM ticket counts of one resource on a box."""
    return ticket_matrix(box.usage_matrix(resource), policy).sum(axis=1)


def tickets_for_box(
    box: BoxTrace,
    policy: TicketPolicy,
    resources: Optional[Sequence[Resource]] = None,
) -> List[TicketRecord]:
    """Materialize every ticket issued on a box as :class:`TicketRecord`.

    Useful for event-level inspection and for the examples; aggregate
    analyses should prefer the count helpers, which avoid building objects.
    """
    records: List[TicketRecord] = []
    for resource in resources or (Resource.CPU, Resource.RAM):
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
