"""Streaming constant-memory fleet aggregation.

At paper scale (6K boxes) the fleet sweeps cannot park every per-box
result in a list before reducing: a ``BoxAtmResult`` carries predicted
and allocation matrices, so a full-fleet result list costs O(fleet ×
trace) RAM for values the aggregates immediately collapse into scalars.
The fleet drivers therefore fold :meth:`FleetExecutor.imap
<repro.core.executor.FleetExecutor.imap>`'s ordered generator as chunks
land, and this module holds the reducer they share:

* :class:`TicketHistogram` — an incremental fixed-bin reducer over
  per-box ticket reductions (the Fig. 8/10 axis), so reduction shapes
  survive a streaming sweep without any per-box list growing with
  payloads.

The reducers here are deliberately plain Python (ints and a short
counts list): they are updated once per box from inside the fold loop
and must never become the thing that scales with fleet size.
"""

from __future__ import annotations

import math
from typing import List

__all__ = ["TicketHistogram"]


class TicketHistogram:
    """Streaming histogram of per-box ticket-reduction percentages.

    Bins span the paper's Fig. 8/10 axis, ``[-100, 100]`` percent in
    ``width``-point steps (clipped reductions never leave it; values are
    clamped to the edge bins regardless).  Non-finite reductions — boxes
    with no tickets to begin with — are tallied separately, mirroring how
    the mean/std aggregations skip them.

    State is a fixed-size counts list plus three scalars, so the reducer
    is O(bins) no matter how many boxes stream through it.
    """

    LO = -100.0
    HI = 100.0

    def __init__(self, width: float = 5.0) -> None:
        if width <= 0:
            raise ValueError(f"bin width must be positive, got {width}")
        self.width = float(width)
        self.n_bins = int(math.ceil((self.HI - self.LO) / self.width))
        self.counts: List[int] = [0] * self.n_bins
        self.nan_count = 0
        self.total = 0
        self._sum = 0.0

    def add(self, reduction_pct: float) -> None:
        """Fold one box's reduction percentage into the histogram."""
        self.total += 1
        value = float(reduction_pct)
        if not math.isfinite(value):
            self.nan_count += 1
            return
        self._sum += value
        index = int((value - self.LO) // self.width)
        self.counts[max(0, min(self.n_bins - 1, index))] += 1

    @property
    def finite_count(self) -> int:
        return self.total - self.nan_count

    def mean(self) -> float:
        """Mean of the finite reductions (``nan`` when there are none)."""
        if self.finite_count == 0:
            return float("nan")
        return self._sum / self.finite_count

    def edges(self) -> List[float]:
        """The ``n_bins + 1`` bin edges, for plotting."""
        return [self.LO + i * self.width for i in range(self.n_bins + 1)]

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (the shape ``--metrics-json`` consumers get)."""
        return {
            "edges": self.edges(),
            "counts": list(self.counts),
            "nan_count": self.nan_count,
            "total": self.total,
        }
