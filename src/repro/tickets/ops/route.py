"""Routing and SLA clocks: turn ranked incidents into worked incidents.

The router plays a deterministic single-responder-per-queue schedule over
one box's scored incidents:

1. :class:`~repro.tickets.ops.scoring.ScoringPolicy` ranks the incidents,
2. :class:`~repro.tickets.ops.assign.AssignPolicy` deals them to queues,
3. each queue serves its incidents in (arrival window, rank) order, one
   at a time, spending :attr:`SlaPolicy.service_windows` per incident.

Every incident gets an :class:`SlaClock`: the window it was acknowledged
(picked up by its queue's responder) and resolved, checked against ack /
resolve deadlines measured *in ticketing windows* from the incident's
start.  Deadlines convert to wall-clock minutes through
``TicketPolicy.window_minutes`` — the day-ahead cadence literature
(Leverger et al., arXiv 1811.02215) sizes operator windows the same way,
per monitoring period rather than per second.

Breaches surface in :mod:`repro.obs` (``sla.breaches``,
``sla.ack_breaches``, ``sla.resolve_breaches``) from the fleet loop, so a
degraded run's metrics snapshot still carries the breach picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.tickets.incidents import Incident
from repro.tickets.ops.assign import AssignPolicy
from repro.tickets.ops.scoring import ScoringPolicy
from repro.tickets.policy import TicketPolicy

__all__ = ["RoutedIncident", "SlaClock", "SlaPolicy", "route_incidents"]


@dataclass(frozen=True)
class SlaPolicy:
    """Deadlines and service time, all in ticketing windows.

    Attributes
    ----------
    ack_windows:
        Windows from incident start within which it must be acknowledged.
    resolve_windows:
        Windows from incident start within which it must be resolved.
    service_windows:
        Responder time one incident occupies its queue for.
    """

    ack_windows: int = 1
    resolve_windows: int = 4
    service_windows: int = 1

    def __post_init__(self) -> None:
        if self.ack_windows < 0 or self.resolve_windows < 0:
            raise ValueError("SLA deadlines must be non-negative")
        if self.service_windows < 1:
            raise ValueError("service_windows must be positive")
        if self.resolve_windows < self.ack_windows:
            raise ValueError(
                "resolve_windows must be at least ack_windows "
                f"(got ack={self.ack_windows}, resolve={self.resolve_windows})"
            )

    def deadlines_minutes(self, policy: TicketPolicy) -> Tuple[int, int]:
        """(ack, resolve) deadlines in wall-clock minutes under ``policy``."""
        return (
            self.ack_windows * policy.window_minutes,
            self.resolve_windows * policy.window_minutes,
        )


@dataclass(frozen=True)
class SlaClock:
    """One incident's acknowledged/resolved windows versus its deadlines."""

    start_window: int
    ack_window: int
    resolve_window: int
    ack_deadline: int
    resolve_deadline: int

    @property
    def ack_breached(self) -> bool:
        return self.ack_window > self.ack_deadline

    @property
    def resolve_breached(self) -> bool:
        return self.resolve_window > self.resolve_deadline

    @property
    def breached(self) -> bool:
        return self.ack_breached or self.resolve_breached


@dataclass(frozen=True)
class RoutedIncident:
    """One incident after scoring, assignment and the SLA-clock schedule."""

    incident: Incident
    rank: int  # 0 = highest score on the box
    score: float
    queue: int
    clock: SlaClock


def route_incidents(
    incidents: Sequence[Incident],
    ticket_policy: TicketPolicy,
    scoring: ScoringPolicy,
    assign: AssignPolicy,
    sla: SlaPolicy,
    n_vms: int,
) -> List[RoutedIncident]:
    """Score, assign and SLA-clock one box's incidents.

    ``incidents`` must be in chronological order (as
    :func:`repro.tickets.incidents.group_incidents` returns them) — the
    chronological index is the recurrence signal.  Returns routed
    incidents in rank (descending score) order; ties break by start
    window then chronological index, so the ordering is total and
    deterministic.
    """
    scored = [
        (
            scoring.score(incident, ticket_policy, prior_incidents=index, n_vms=n_vms),
            incident,
            index,
        )
        for index, incident in enumerate(incidents)
    ]
    scored.sort(key=lambda item: (-item[0], item[1].start_window, item[2]))
    ranked = [incident for _, incident, _ in scored]
    queues = assign.assign(ranked)

    # One responder per queue: serve in (arrival, rank) order, each
    # incident occupying the responder for service_windows.
    order = sorted(
        range(len(ranked)),
        key=lambda rank: (ranked[rank].start_window, rank),
    )
    responder_free = [0] * assign.n_queues
    clocks: List[SlaClock] = [None] * len(ranked)  # type: ignore[list-item]
    for rank in order:
        incident = ranked[rank]
        queue = queues[rank]
        ack = max(incident.start_window, responder_free[queue])
        resolve = ack + sla.service_windows
        responder_free[queue] = resolve
        clocks[rank] = SlaClock(
            start_window=incident.start_window,
            ack_window=ack,
            resolve_window=resolve,
            ack_deadline=incident.start_window + sla.ack_windows,
            resolve_deadline=incident.start_window + sla.resolve_windows,
        )

    return [
        RoutedIncident(
            incident=incident,
            rank=rank,
            score=score,
            queue=queues[rank],
            clock=clocks[rank],
        )
        for rank, (score, incident, _) in enumerate(scored)
    ]
