"""Incident grouping: collapse correlated ticket storms into root causes.

The paper's motivation (Fig. 1): when co-located VMs move together, their
tickets fire *together* — "the temporal and spatial dependencies among VMs
not only increase the number of tickets but also the difficulty in
identifying their root cause".  Operators therefore triage *incidents*, not
raw tickets.

This module implements the standard triage heuristic: tickets on the same
box are merged into one incident when they overlap in time (within a small
window gap) — a box-level resource event with several symptoms.  The
incident count is the better proxy for triage labor, while the raw ticket
count drives per-ticket resolution cost; both feed
:class:`repro.tickets.costs.TicketCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.tickets.monitor import TicketRecord, tickets_for_box
from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, FleetTrace

__all__ = ["Incident", "group_incidents", "incidents_for_box", "fleet_incident_stats"]


@dataclass(frozen=True)
class Incident:
    """A group of temporally overlapping tickets on one box."""

    box_id: str
    start_window: int
    end_window: int
    tickets: Tuple[TicketRecord, ...]

    @property
    def n_tickets(self) -> int:
        return len(self.tickets)

    @property
    def n_vms(self) -> int:
        return len({t.vm_id for t in self.tickets})

    @property
    def duration_windows(self) -> int:
        return self.end_window - self.start_window + 1

    @property
    def is_spatial(self) -> bool:
        """Did the event spill across multiple co-located VMs?"""
        return self.n_vms > 1


def group_incidents(
    records: Sequence[TicketRecord], max_gap_windows: int = 1
) -> List[Incident]:
    """Merge tickets of one box into incidents by temporal proximity.

    Two tickets belong to the same incident when their windows are at most
    ``max_gap_windows`` apart (counting through the tickets already in the
    incident) — single-linkage in time, which is how alert-dedup systems
    coalesce flapping alarms.
    """
    if max_gap_windows < 0:
        raise ValueError("max_gap_windows must be non-negative")
    if not records:
        return []
    box_ids = {r.box_id for r in records}
    if len(box_ids) != 1:
        raise ValueError(f"records span multiple boxes: {sorted(box_ids)}")
    ordered = sorted(records, key=lambda r: r.window)
    incidents: List[Incident] = []
    bucket: List[TicketRecord] = [ordered[0]]
    last_window = ordered[0].window
    for record in ordered[1:]:
        if record.window - last_window <= max_gap_windows:
            bucket.append(record)
            last_window = max(last_window, record.window)
        else:
            incidents.append(_finish(bucket))
            bucket = [record]
            # Reset the linkage anchor on new-bucket start: carrying the
            # previous incident's max across the boundary only happened to
            # work because records are pre-sorted.
            last_window = record.window
    incidents.append(_finish(bucket))
    return incidents


def _finish(bucket: List[TicketRecord]) -> Incident:
    windows = [t.window for t in bucket]
    return Incident(
        box_id=bucket[0].box_id,
        start_window=min(windows),
        end_window=max(windows),
        tickets=tuple(bucket),
    )


def incidents_for_box(box: BoxTrace, policy: TicketPolicy) -> List[Incident]:
    """Extract and group a box's tickets in one call."""
    return group_incidents(tickets_for_box(box, policy))


def fleet_incident_stats(fleet: FleetTrace, policy: TicketPolicy) -> dict:
    """Fleet-level triage picture: tickets vs incidents vs spatial spillover.

    Returns a dict with total tickets, total incidents, the deduplication
    ratio (tickets per incident — how much triage the correlation structure
    saves or costs), and the share of incidents touching multiple VMs (the
    paper's root-cause-difficulty indicator).  On a ticket-free fleet the
    two ratios are ``None`` (JSON ``null``) rather than ``float("nan")``:
    the dict feeds serialized reports, and NaN is not a standard JSON token.
    """
    total_tickets = 0
    total_incidents = 0
    spatial_incidents = 0
    for box in fleet:
        incidents = incidents_for_box(box, policy)
        total_incidents += len(incidents)
        total_tickets += sum(i.n_tickets for i in incidents)
        spatial_incidents += sum(1 for i in incidents if i.is_spatial)
    return {
        "tickets": total_tickets,
        "incidents": total_incidents,
        "tickets_per_incident": (
            total_tickets / total_incidents if total_incidents else None
        ),
        "spatial_incident_share": (
            spatial_incidents / total_incidents if total_incidents else None
        ),
    }
