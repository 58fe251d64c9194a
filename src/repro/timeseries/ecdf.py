"""Empirical CDFs and box-plot summaries for the evaluation figures.

The paper's figures report two recurring shapes: cumulative distribution
functions across boxes (Figs. 3 and 9) and box plots with 25th/50th/75th
percentiles, mean and whiskers (Figs. 6 and 7).  Both are small, dependency-
free helpers here so every benchmark prints the same statistics the paper
plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["Ecdf", "BoxplotSummary", "histogram_shares"]


@dataclass(frozen=True)
class Ecdf:
    """Empirical cumulative distribution function of a finite sample."""

    values: np.ndarray

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Ecdf":
        arr = np.asarray([s for s in samples if np.isfinite(s)], dtype=float)
        if arr.size == 0:
            raise ValueError("ECDF requires at least one finite sample")
        return cls(values=np.sort(arr))

    def __call__(self, x: float) -> float:
        """Return P(X <= x)."""
        return float(np.searchsorted(self.values, x, side="right") / self.values.size)

    def quantile(self, q: float) -> float:
        """Return the q-quantile (linear interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.values, q))

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def evaluate(self, grid: Sequence[float]) -> List[Tuple[float, float]]:
        """Return ``(x, F(x))`` pairs over an explicit grid, for table printing."""
        return [(float(x), self(float(x))) for x in grid]


@dataclass(frozen=True)
class BoxplotSummary:
    """The statistics a paper box plot encodes: quartiles, mean, whiskers."""

    q25: float
    median: float
    q75: float
    mean: float
    whisker_low: float
    whisker_high: float
    n: int

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "BoxplotSummary":
        arr = np.asarray([s for s in samples if np.isfinite(s)], dtype=float)
        if arr.size == 0:
            raise ValueError("box plot requires at least one finite sample")
        return cls(
            q25=float(np.quantile(arr, 0.25)),
            median=float(np.quantile(arr, 0.50)),
            q75=float(np.quantile(arr, 0.75)),
            mean=float(arr.mean()),
            whisker_low=float(arr.min()),
            whisker_high=float(arr.max()),
            n=int(arr.size),
        )


def histogram_shares(
    samples: Iterable[float], bin_edges: Sequence[float]
) -> List[Tuple[str, float]]:
    """Return the share of samples falling into each ``[lo, hi)`` bin.

    Used for Fig. 5's "percentage of boxes with k clusters" bars.  The last
    bin is closed on the right so the maximum is counted.
    """
    arr = np.asarray(list(samples), dtype=float)
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    if arr.size == 0:
        raise ValueError("need at least one sample")
    counts, _ = np.histogram(arr, bins=edges)
    labels = [
        f"{int(lo)}-{int(hi - 1)}" if hi - lo > 1 else f"{int(lo)}"
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    shares = counts / arr.size
    return list(zip(labels, shares.tolist()))
