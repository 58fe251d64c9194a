"""Ticketing policies: thresholds and window semantics.

A :class:`TicketPolicy` captures how the monitoring system of Section II
decides to issue a usage ticket: at the end of every ticketing window the
average utilization of each VM resource is compared against a threshold
(60%, 70% or 80% in the paper; 60% is the evaluation default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["TicketPolicy", "DEFAULT_THRESHOLDS", "DEFAULT_POLICY"]

#: The three threshold levels studied in Section II-A (percent).
DEFAULT_THRESHOLDS: Tuple[float, float, float] = (60.0, 70.0, 80.0)


@dataclass(frozen=True)
class TicketPolicy:
    """Threshold policy for usage tickets.

    Attributes
    ----------
    threshold_pct:
        Utilization threshold in percent of allocated capacity.  A ticket is
        issued for a window when usage strictly exceeds this value.
    window_minutes:
        Length of the ticketing window (15 minutes in the paper).
    """

    threshold_pct: float = 60.0
    window_minutes: int = 15

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_pct < 100.0:
            raise ValueError(
                f"threshold_pct must be in (0, 100), got {self.threshold_pct}"
            )
        if self.window_minutes <= 0:
            raise ValueError("window_minutes must be positive")

    @property
    def alpha(self) -> float:
        """The threshold as a fraction (the paper's alpha, e.g. 0.6)."""
        return self.threshold_pct / 100.0


#: Evaluation default (Section V): tickets at 60% utilization, 15-min windows.
DEFAULT_POLICY = TicketPolicy()
