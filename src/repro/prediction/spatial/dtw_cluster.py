"""DTW-based clustering of demand series (Section III-A, step 1, option A).

Pipeline exactly as the paper describes:

1. Pairwise DTW dissimilarity matrix over the ``M x N`` series.
2. Agglomerative hierarchical clustering on that matrix.
3. Sweep the number of clusters from 2 to ``(M*N)/2`` and keep the cut with
   the maximal mean silhouette value.
4. Within each cluster, the series with the lowest average dissimilarity to
   its cluster mates becomes the signature series.

Series are z-scored before DTW by default so clustering keys on *shape*, not
on absolute demand magnitude (co-located VMs have heterogeneous capacities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.timeseries.clustering import HierarchicalClustering, clusters_as_lists
from repro.timeseries.dtw import dtw_distance_matrix
from repro.timeseries.silhouette import best_silhouette_cut

__all__ = ["DtwClusterResult", "dtw_clusters"]


@dataclass(frozen=True)
class DtwClusterResult:
    """Outcome of silhouette-tuned DTW clustering."""

    labels: Tuple[int, ...]
    signatures: Tuple[int, ...]
    n_clusters: int
    silhouette: float


def _signature_of_cluster(distances: np.ndarray, members: List[int]) -> int:
    """The member with the lowest mean dissimilarity to the other members."""
    if len(members) == 1:
        return members[0]
    sub = distances[np.ix_(members, members)]
    mean_dist = sub.sum(axis=1) / (len(members) - 1)
    return members[int(np.argmin(mean_dist))]


def dtw_clusters(
    series: Sequence[Sequence[float]],
    window: Optional[int] = None,
    zscore: bool = True,
    max_clusters: Optional[int] = None,
) -> DtwClusterResult:
    """Cluster series with DTW + hierarchical clustering + silhouette search.

    Parameters
    ----------
    series:
        ``(n_series, n_samples)`` data.
    window:
        Optional Sakoe-Chiba half-width for the DTW computation (a tight
        window is a large speedup on long traces with negligible quality
        loss for 15-minute usage data).
    zscore:
        Standardize series before DTW (default, see module docstring).
    max_clusters:
        Upper end of the silhouette sweep; defaults to ``n_series // 2``
        per the paper ("we aim to reduce the original set to at least its
        half").
    """
    data = np.asarray(series, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"series must be 2-D (n_series, n_samples), got {data.shape}")
    n = data.shape[0]
    if n == 0:
        raise ValueError("need at least one series")
    if n == 1:
        return DtwClusterResult(labels=(0,), signatures=(0,), n_clusters=1, silhouette=0.0)

    distances = dtw_distance_matrix(data, window=window, zscore=zscore)
    clustering = HierarchicalClustering(distances)

    upper = max_clusters if max_clusters is not None else n // 2
    upper = int(np.clip(upper, 2, n))
    # One incremental replay of the merge sequence yields every candidate
    # cut; re-cutting from scratch per k made the sweep quadratic.  All
    # cuts are then scored against the shared distance matrix in one
    # vectorized silhouette sweep (ties prefer fewer clusters).
    sweep = clustering.cuts(range(2, upper + 1))
    score, k, labels = best_silhouette_cut(distances, sweep)

    groups = clusters_as_lists(labels)
    signatures = tuple(_signature_of_cluster(distances, members) for members in groups)
    return DtwClusterResult(
        labels=tuple(labels),
        signatures=signatures,
        n_clusters=k,
        silhouette=score,
    )
