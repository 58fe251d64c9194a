"""Incident operations: route, SLA-clock and explain the fleet's tickets.

The operational half of ticket management — the paper's premise is that
correlated tickets are *managed* incidents, not raw alarms.  This package
closes the ``monitor → incidents → route → resolve`` loop:

* :mod:`repro.tickets.ops.scoring` — severity × recurrence × criticality
  triage scores (swappable :class:`ScoringPolicy`).
* :mod:`repro.tickets.ops.assign`  — deterministic incident → queue
  assignment (:class:`AssignPolicy`: round-robin or sticky-by-box).
* :mod:`repro.tickets.ops.route`   — the SLA-clock schedule
  (:class:`SlaPolicy`, :class:`SlaClock`) with breach detection.
* :mod:`repro.tickets.ops.evidence` — per-incident evidence bundles,
  stored as one pack per box and resolved by their fingerprints.
* :mod:`repro.tickets.ops.pipeline` — the streaming fleet loop
  (:func:`run_fleet_ops`) behind the CLI ``tickets`` command.
"""

from repro.tickets.ops.assign import ASSIGN_STRATEGIES, AssignPolicy
from repro.tickets.ops.evidence import (
    EVIDENCE_STAGE,
    EvidenceBundle,
    EvidencePack,
    build_evidence,
    evidence_key,
    resolve_evidence,
)
from repro.tickets.ops.pipeline import (
    TICKET_OPS_STAGE,
    BoxOpsResult,
    FleetOpsResult,
    IncidentRow,
    OpsConfig,
    run_box_ops,
    run_fleet_ops,
)
from repro.tickets.ops.route import (
    RoutedIncident,
    SlaClock,
    SlaPolicy,
    route_incidents,
)
from repro.tickets.ops.scoring import ScoringPolicy, incident_severity

__all__ = [
    "ASSIGN_STRATEGIES",
    "EVIDENCE_STAGE",
    "TICKET_OPS_STAGE",
    "AssignPolicy",
    "BoxOpsResult",
    "EvidenceBundle",
    "EvidencePack",
    "FleetOpsResult",
    "IncidentRow",
    "OpsConfig",
    "RoutedIncident",
    "ScoringPolicy",
    "SlaClock",
    "SlaPolicy",
    "build_evidence",
    "evidence_key",
    "incident_severity",
    "resolve_evidence",
    "route_incidents",
    "run_box_ops",
    "run_fleet_ops",
]
