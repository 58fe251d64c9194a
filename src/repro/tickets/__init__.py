"""Ticketing substrate: policies, monitoring, and the Section II analyses.

Usage tickets fire when a VM's resource utilization exceeds a threshold of
its allocated capacity during a 15-minute ticketing window.  This subpackage
turns usage/demand series into ticket events and reproduces the paper's
characterization study:

* :mod:`repro.tickets.policy` — threshold/window policies.
* :mod:`repro.tickets.monitor` — ticket extraction and counting.
* :mod:`repro.tickets.characterization` — Fig. 2 (ticket distribution,
  culprit VMs) and Fig. 3 (spatial-correlation CDFs).
* :mod:`repro.tickets.incidents` — correlated tickets grouped into
  triageable incidents.
* :mod:`repro.tickets.ops` — the operations loop (scoring, routing, SLA
  clocks, evidence bundles); imported on demand, not re-exported here,
  since it pulls in the executor/store substrate.
"""

from repro.tickets.costs import CostBreakdown, TicketCostModel
from repro.tickets.incidents import (
    Incident,
    fleet_incident_stats,
    group_incidents,
    incidents_for_box,
)
from repro.tickets.characterization import (
    BoxTicketStats,
    CorrelationCdfs,
    FleetTicketSummary,
    correlation_cdfs,
    fleet_ticket_summary,
)
from repro.tickets.monitor import (
    TicketRecord,
    ticket_matrix,
    tickets_for_box,
)
from repro.tickets.policy import DEFAULT_THRESHOLDS, TicketPolicy

__all__ = [
    "BoxTicketStats",
    "CorrelationCdfs",
    "CostBreakdown",
    "Incident",
    "TicketCostModel",
    "fleet_incident_stats",
    "group_incidents",
    "incidents_for_box",
    "DEFAULT_THRESHOLDS",
    "FleetTicketSummary",
    "TicketPolicy",
    "TicketRecord",
    "correlation_cdfs",
    "fleet_ticket_summary",
    "ticket_matrix",
    "tickets_for_box",
]
