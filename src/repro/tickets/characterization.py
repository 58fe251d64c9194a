"""Section II characterization analyses (Figs. 2 and 3).

Three questions from the paper:

1. How many boxes have usage tickets, per resource and threshold (Fig. 2a)?
2. How are tickets distributed per box — mean and standard deviation
   (Fig. 2b)?
3. How concentrated are tickets — how many "culprit" VMs account for the
   majority (80%) of a box's tickets (Fig. 2c)?

Plus the spatial-dependency study: the CDFs across boxes of the per-box
median intra-CPU / intra-RAM / inter-all / inter-pair correlations (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tickets.monitor import per_vm_ticket_counts
from repro.tickets.policy import DEFAULT_THRESHOLDS, TicketPolicy
from repro.timeseries.correlation import decompose_box_correlations
from repro.timeseries.ecdf import Ecdf
from repro.trace.model import BoxTrace, FleetTrace, Resource

__all__ = [
    "BoxTicketStats",
    "FleetTicketSummary",
    "CorrelationCdfs",
    "culprit_vm_count",
    "box_ticket_stats",
    "fleet_ticket_summary",
    "correlation_cdfs",
]

#: The paper's ad-hoc "majority of tickets" definition for culprit VMs.
MAJORITY_SHARE = 0.80


def _scope(box: BoxTrace, first_windows: Optional[int]) -> BoxTrace:
    """Restrict a box to its first windows; whole box when not restricting."""
    if first_windows is None or first_windows >= box.n_windows:
        return box
    return box.split_windows(first_windows)[0]


def culprit_vm_count(per_vm_counts: Sequence[int]) -> int:
    """Return the minimum number of VMs covering :data:`MAJORITY_SHARE` of a box's tickets.

    Zero when the box has no tickets.  VMs are taken greedily from the most
    ticketed down, which is optimal for this coverage question.
    """
    counts = np.sort(np.asarray(per_vm_counts, dtype=float))[::-1]
    total = counts.sum()
    if total <= 0:
        return 0
    needed = MAJORITY_SHARE * total
    covered = np.cumsum(counts)
    return int(np.searchsorted(covered, needed - 1e-9) + 1)


@dataclass(frozen=True)
class BoxTicketStats:
    """Ticket statistics of one box for one resource and one policy."""

    box_id: str
    resource: Resource
    threshold_pct: float
    total_tickets: int
    per_vm: Tuple[int, ...]
    culprits: int

    @property
    def has_tickets(self) -> bool:
        return self.total_tickets > 0


def box_ticket_stats(
    box: BoxTrace,
    resource: Resource,
    policy: TicketPolicy,
    first_windows: Optional[int] = None,
) -> BoxTicketStats:
    """Compute :class:`BoxTicketStats` for one box.

    ``first_windows`` restricts the analysis to the first ``k`` windows —
    the paper's Fig. 2 uses a single day of the 7-day trace.  Values of
    ``first_windows`` at or beyond the trace length select the whole trace.
    """
    scoped = _scope(box, first_windows)
    counts = per_vm_ticket_counts(scoped, resource, policy)
    return BoxTicketStats(
        box_id=box.box_id,
        resource=resource,
        threshold_pct=policy.threshold_pct,
        total_tickets=int(counts.sum()),
        per_vm=tuple(int(c) for c in counts),
        culprits=culprit_vm_count(counts),
    )


@dataclass
class FleetTicketSummary:
    """Fleet-level reproduction of Fig. 2 for a set of thresholds.

    For every (resource, threshold) pair:

    * ``pct_boxes_with_tickets`` — Fig. 2a bars,
    * ``mean_tickets_per_box`` / ``std_tickets_per_box`` — Fig. 2b bars
      (mean over *all* boxes, matching the paper's per-box averages),
    * ``mean_culprits`` / ``std_culprits`` — Fig. 2c bars, computed over the
      boxes that have at least one ticket (a culprit count is undefined
      otherwise).
    """

    thresholds: Tuple[float, ...]
    pct_boxes_with_tickets: Dict[Tuple[Resource, float], float] = field(
        default_factory=dict
    )
    mean_tickets_per_box: Dict[Tuple[Resource, float], float] = field(
        default_factory=dict
    )
    std_tickets_per_box: Dict[Tuple[Resource, float], float] = field(
        default_factory=dict
    )
    mean_culprits: Dict[Tuple[Resource, float], float] = field(default_factory=dict)
    std_culprits: Dict[Tuple[Resource, float], float] = field(default_factory=dict)

    def row(self, resource: Resource, threshold: float) -> Dict[str, float]:
        key = (resource, threshold)
        return {
            "pct_boxes": self.pct_boxes_with_tickets[key],
            "mean_tickets": self.mean_tickets_per_box[key],
            "std_tickets": self.std_tickets_per_box[key],
            "mean_culprits": self.mean_culprits[key],
            "std_culprits": self.std_culprits[key],
        }


def fleet_ticket_summary(
    fleet: FleetTrace, first_windows: Optional[int] = None
) -> FleetTicketSummary:
    """Compute the Fig. 2 summary across a fleet, at :data:`DEFAULT_THRESHOLDS`."""
    summary = FleetTicketSummary(thresholds=tuple(DEFAULT_THRESHOLDS))
    for resource in (Resource.CPU, Resource.RAM):
        for threshold in DEFAULT_THRESHOLDS:
            policy = TicketPolicy(threshold_pct=threshold)
            stats = [
                box_ticket_stats(box, resource, policy, first_windows=first_windows)
                for box in fleet
            ]
            totals = np.array([s.total_tickets for s in stats], dtype=float)
            culprits = np.array([s.culprits for s in stats if s.has_tickets], dtype=float)
            key = (resource, threshold)
            summary.pct_boxes_with_tickets[key] = float(100.0 * (totals > 0).mean())
            summary.mean_tickets_per_box[key] = float(totals.mean())
            summary.std_tickets_per_box[key] = float(totals.std())
            summary.mean_culprits[key] = (
                float(culprits.mean()) if culprits.size else 0.0
            )
            summary.std_culprits[key] = float(culprits.std()) if culprits.size else 0.0
    return summary


@dataclass(frozen=True)
class CorrelationCdfs:
    """Fleet-level CDFs of the per-box median correlations (Fig. 3)."""

    intra_cpu: Ecdf
    intra_ram: Ecdf
    inter_all: Ecdf
    inter_pair: Ecdf

    def means(self) -> Dict[str, float]:
        """Mean of the per-box medians (paper: 0.26, 0.24, 0.30, 0.62)."""
        return {
            "intra_cpu": self.intra_cpu.mean,
            "intra_ram": self.intra_ram.mean,
            "inter_all": self.inter_all.mean,
            "inter_pair": self.inter_pair.mean,
        }


def correlation_cdfs(
    fleet: FleetTrace, first_windows: Optional[int] = None
) -> CorrelationCdfs:
    """Compute the Fig. 3 correlation CDFs across all boxes of a fleet.

    Boxes that cannot form a pair of a given type (e.g. single-VM boxes have
    no intra pairs) are skipped for that CDF only.
    """
    collected: Dict[str, List[float]] = {
        "intra_cpu": [],
        "intra_ram": [],
        "inter_all": [],
        "inter_pair": [],
    }
    for box in fleet:
        scoped = _scope(box, first_windows)
        decomposition = decompose_box_correlations(
            scoped.usage_matrix(Resource.CPU),
            scoped.usage_matrix(Resource.RAM),
        )
        for key, value in decomposition.as_dict().items():
            if np.isfinite(value):
                collected[key].append(value)
    missing = [key for key, values in collected.items() if not values]
    if missing:
        raise ValueError(
            f"fleet has no boxes with enough VMs for correlation types: {missing}"
        )
    return CorrelationCdfs(
        intra_cpu=Ecdf.from_samples(collected["intra_cpu"]),
        intra_ram=Ecdf.from_samples(collected["intra_ram"]),
        inter_all=Ecdf.from_samples(collected["inter_all"]),
        inter_pair=Ecdf.from_samples(collected["inter_pair"]),
    )
