"""Pearson correlation utilities and the paper's intra/inter decomposition.

Section II-B quantifies spatial dependency among co-located VMs with four
families of Pearson correlation coefficients computed per box:

* **intra-CPU** — between any pair of CPU usage series,
* **intra-RAM** — between any pair of RAM usage series,
* **inter-all** — between any CPU series and any RAM series (any VM pair),
* **inter-pair** — between the CPU and RAM series *of the same VM*.

For each box the paper reports the median of each family and then plots the
CDF of those medians across boxes (Fig. 3).  :class:`CorrelationDecomposition`
computes the per-box medians; the fleet-level CDFs live in
:mod:`repro.tickets.characterization`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "pearson",
    "pairwise_correlation_matrix",
    "CorrelationDecomposition",
    "decompose_box_correlations",
]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Return the Pearson correlation coefficient of two equal-length series.

    Degenerate inputs (a constant series) have undefined correlation; this
    returns ``0.0`` for them, which is the conservative choice for the
    paper's use (a constant series carries no spatial signal to exploit).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError(
            f"series must be one-dimensional with equal length, got {xa.shape} and {ya.shape}"
        )
    if xa.size < 2:
        raise ValueError("correlation requires at least two samples")
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    denom = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    if denom <= 1e-12:
        return 0.0
    return float(np.clip((xd * yd).sum() / denom, -1.0, 1.0))


def pairwise_correlation_matrix(series: Sequence[Sequence[float]]) -> np.ndarray:
    """Return the symmetric Pearson correlation matrix for many series.

    Constant series yield zero correlation against everything (and ``1.0`` on
    the diagonal, by convention).
    """
    data = np.asarray(series, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D (n_series, n_samples) array, got {data.shape}")
    n = data.shape[0]
    centered = data - data.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    corr = np.eye(n)
    safe = norms > 1e-12
    if safe.any():
        normed = np.zeros_like(centered)
        normed[safe] = centered[safe] / norms[safe, None]
        corr = normed @ normed.T
        np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def _median_or_nan(values: Sequence[float]) -> float:
    arr = np.asarray(list(values), dtype=float)
    return float(np.median(arr)) if arr.size else float("nan")


@dataclass(frozen=True)
class CorrelationDecomposition:
    """Per-box median correlations along the paper's four axes.

    Any component is ``nan`` when the box does not have enough series to form
    at least one pair of the corresponding type (e.g. a single-VM box has no
    intra-CPU pairs).
    """

    intra_cpu: float
    intra_ram: float
    inter_all: float
    inter_pair: float

    def as_dict(self) -> dict:
        return {
            "intra_cpu": self.intra_cpu,
            "intra_ram": self.intra_ram,
            "inter_all": self.inter_all,
            "inter_pair": self.inter_pair,
        }


def decompose_box_correlations(
    cpu_series: Sequence[Sequence[float]],
    ram_series: Sequence[Sequence[float]],
) -> CorrelationDecomposition:
    """Compute the Section II-B correlation decomposition for one box.

    Parameters
    ----------
    cpu_series, ram_series:
        Usage series of the box's co-located VMs; ``cpu_series[i]`` and
        ``ram_series[i]`` must belong to the same VM ``i``.

    Coefficients are signed.  The paper plots CDFs over ``[0, 1]``, which is
    consistent with signed or ``|rho|`` values for its (mostly positively
    correlated) data.
    """
    if len(cpu_series) != len(ram_series):
        raise ValueError(
            f"need one CPU and one RAM series per VM, got {len(cpu_series)} CPU "
            f"and {len(ram_series)} RAM series"
        )
    m = len(cpu_series)
    if m == 0:
        raise ValueError("box has no VMs")

    intra_cpu = [
        pearson(cpu_series[i], cpu_series[j]) for i in range(m) for j in range(i + 1, m)
    ]
    intra_ram = [
        pearson(ram_series[i], ram_series[j]) for i in range(m) for j in range(i + 1, m)
    ]
    # "inter-all": any CPU series against any RAM series, including the pair
    # belonging to the same VM (the paper's "from any pair").
    inter_all = [pearson(cpu_series[i], ram_series[j]) for i in range(m) for j in range(m)]
    inter_pair = [pearson(cpu_series[i], ram_series[i]) for i in range(m)]

    return CorrelationDecomposition(
        intra_cpu=_median_or_nan(intra_cpu),
        intra_ram=_median_or_nan(intra_ram),
        inter_all=_median_or_nan(inter_all),
        inter_pair=_median_or_nan(inter_pair),
    )


def count_strong_partners(
    corr: np.ndarray, threshold: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Return, for each series, (#partners with rho >= threshold, their mean rho).

    This is the ranking statistic used by correlation-based clustering
    (Section III-A): series are ranked first by how many other series they are
    strongly correlated with, then by the mean strength of those links.
    Series with no strong partner get a mean of ``0.0``.
    """
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError(f"corr must be square, got {corr.shape}")
    masked = corr.copy()
    np.fill_diagonal(masked, -np.inf)
    strong = masked >= threshold
    counts = strong.sum(axis=1)
    means = np.zeros(corr.shape[0])
    rows = counts > 0
    if rows.any():
        sums = np.where(strong, masked, 0.0).sum(axis=1)
        means[rows] = sums[rows] / counts[rows]
    return counts.astype(int), means
