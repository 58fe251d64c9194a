"""Ticket extraction: turn usage series into ticket events and counts.

The monitor implements the semantics of the paper's indicator variable
``I_{i,t}`` (Eq. 6): VM ``i`` receives a ticket in window ``t`` when its
demand exceeds ``alpha * C_i`` — equivalently, when its utilization exceeds
the threshold percentage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

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


def _ranks(strings: Sequence[str]) -> np.ndarray:
    """Each string's rank among the distinct sorted ``strings``."""
    rank = {value: i for i, value in enumerate(sorted(set(strings)))}
    return np.array([rank[value] for value in strings], dtype=np.int64)


def tickets_for_box(box: BoxTrace, policy: TicketPolicy) -> List[TicketRecord]:
    """Materialize every ticket issued on a box as :class:`TicketRecord`.

    Records come sorted by ``(window, vm_id, resource value)``; ties keep
    CPU before RAM and then the order of the VMs.  Useful for
    event-level inspection and for the examples; aggregate analyses
    should prefer the count helpers, which avoid building objects.
    """
    resources = (Resource.CPU, Resource.RAM)
    usage = box.usage_matrix()
    # Derive hits from the one indicator implementation (Eq. 6) rather
    # than re-stating the comparison inline, so threshold semantics live
    # in a single place.  Row r of ``usage`` is VM r % M of resource r // M.
    rows, windows = np.nonzero(ticket_matrix(usage, policy))
    m = box.n_vms
    # Sort keys: a VM's rank among the box's sorted ids (equal ids share
    # one), and the resource index, which is already the rank of its value
    # ("cpu" < "ram").  lexsort is stable, so ties keep the row-major order
    # of the hits.
    vm_rank = _ranks(box.vm_ids)
    order = np.lexsort((rows // m, vm_rank[rows % m], windows))
    rows, windows = rows[order], windows[order]
    box_id, vm_ids = box.box_id, box.vm_ids
    return [
        TicketRecord(box_id, vm_ids[vm], resources[kind], window, pct)
        for vm, kind, window, pct in zip(
            (rows % m).tolist(),
            (rows // m).tolist(),
            windows.tolist(),
            usage[rows, windows].tolist(),
        )
    ]
