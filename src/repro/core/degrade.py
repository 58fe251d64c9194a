"""Structured degradation reporting for the fleet drivers.

The graceful-degradation ladder never silently swallows a failure: every
rung transition is recorded as a :class:`DegradationEvent` and surfaced
through the entry point's :class:`ErrorReport`, so a partially degraded
fleet run is distinguishable from a clean one at a glance — and
debuggable from the stored reasons.

The offline pipeline and the online controller climb one ladder up to
its last rung (:class:`repro.core.stages._BoxRun` carries both).  Rung
names, in ladder order:

* ``"primary"`` — the configured model ran (no event recorded);
* ``"seasonal_mean"`` — the primary rung failed; per-series slot means
  of the sanitized training slice served the run.  It runs no signature
  search, because the search may be the failing component;
* ``"hold"`` — the online controller's terminal rung: the seasonal rung
  failed too, and the current allocation was held (no resize, no
  prediction score), because a controller must set an allocation every
  step;
* ``"failed"`` — the offline pipeline's terminal rung (an evaluation
  leaves out a box it has no forecast for), and the rung of any per-box
  unit of work that died outside the ladder; the box is excluded from
  the partial results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = [
    "RUNG_FAILED",
    "RUNG_HOLD",
    "RUNG_PRIMARY",
    "RUNG_SEASONAL",
    "DegradationEvent",
    "ErrorReport",
    "sanitize_demands",
]

RUNG_PRIMARY = "primary"
RUNG_SEASONAL = "seasonal_mean"
RUNG_HOLD = "hold"
RUNG_FAILED = "failed"


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded rung transition (or whole-box failure)."""

    box_id: str
    stage: str              # "fit", "predict", "run", or "fleet"
    rung: str               # the rung reached: seasonal_mean / hold / failed
    reason: str             # repr() of the triggering exception
    step: Optional[int] = None  # online controller step; None for one-shot runs

    def to_dict(self) -> dict:
        return {
            "box_id": self.box_id,
            "stage": self.stage,
            "rung": self.rung,
            "reason": self.reason,
            "step": self.step,
        }

    @staticmethod
    def from_dict(raw: dict) -> "DegradationEvent":
        return DegradationEvent(
            box_id=str(raw["box_id"]),
            stage=str(raw["stage"]),
            rung=str(raw["rung"]),
            reason=str(raw["reason"]),
            step=None if raw.get("step") is None else int(raw["step"]),
        )


@dataclass
class ErrorReport:
    """Aggregated degradation events of one fleet-scale run."""

    events: List[DegradationEvent] = field(default_factory=list)

    def add(self, event: DegradationEvent) -> None:
        self.events.append(event)

    def extend(self, events: List[DegradationEvent]) -> None:
        self.events.extend(events)

    @property
    def ok(self) -> bool:
        """True when nothing degraded."""
        return not self.events

    @property
    def degraded_boxes(self) -> List[str]:
        """Unique box ids that hit any rung below primary, in event order."""
        seen: List[str] = []
        for event in self.events:
            if event.box_id not in seen:
                seen.append(event.box_id)
        return seen

    @property
    def failed_boxes(self) -> List[str]:
        """Boxes excluded from results entirely (rung ``"failed"``)."""
        seen: List[str] = []
        for event in self.events:
            if event.rung == RUNG_FAILED and event.box_id not in seen:
                seen.append(event.box_id)
        return seen

    def to_dict(self) -> dict:
        return {
            "degraded_boxes": self.degraded_boxes,
            "failed_boxes": self.failed_boxes,
            "events": [e.to_dict() for e in self.events],
        }


def sanitize_demands(matrix: np.ndarray) -> np.ndarray:
    """Replace non-finite training samples with the row's finite mean.

    The seasonal rung must survive NaN-poisoned training slices that the
    primary fit correctly rejects; substituting each series' finite mean
    (0 when a series has none) keeps the slice's scale while discarding
    the corruption.  Always returns a copy; finite input comes back equal.
    """
    arr = np.array(matrix, dtype=float)
    finite = np.isfinite(arr)
    if finite.all():
        return arr
    counts = finite.sum(axis=1)
    sums = np.where(finite, arr, 0.0).sum(axis=1)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    rows, cols = np.nonzero(~finite)
    arr[rows, cols] = means[rows]
    return arr
