"""Feature-based clustering — the paper's cited alternative (step 1, option C).

The related-work section points at feature-extraction approaches
(Fulcher & Jones [11]) as the other standard way to cluster large series
collections cheaply.  This module implements that third option for the ATM
framework: each series is embedded by
:func:`repro.timeseries.acf.feature_vector`, features are standardized, and
hierarchical clustering with the silhouette sweep picks the cut — the exact
machinery of the DTW path, with Euclidean feature distance replacing the
O(n^2) DTW dynamic program.  Cost per box drops from O(S^2 * T^2) to
O(S * T + S^2), which is the practical argument for features at very large
fleets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.timeseries.acf import feature_vector
from repro.timeseries.clustering import HierarchicalClustering, clusters_as_lists
from repro.timeseries.silhouette import best_silhouette_cut

__all__ = ["FeatureClusterResult", "feature_clusters"]


@dataclass(frozen=True)
class FeatureClusterResult:
    """Outcome of silhouette-tuned feature-space clustering."""

    labels: Tuple[int, ...]
    signatures: Tuple[int, ...]
    n_clusters: int
    silhouette: float
    features: np.ndarray  # (n_series, n_features), standardized


def _standardize_columns(matrix: np.ndarray) -> np.ndarray:
    std = matrix.std(axis=0)
    std[std < 1e-12] = 1.0
    return (matrix - matrix.mean(axis=0)) / std


def feature_clusters(
    series: Sequence[Sequence[float]],
    period: int = 96,
    max_clusters: Optional[int] = None,
) -> FeatureClusterResult:
    """Cluster series by their feature embeddings.

    Parameters mirror :func:`repro.prediction.spatial.dtw_cluster.dtw_clusters`;
    the signature of each cluster is the member closest to the cluster's
    feature centroid.
    """
    data = np.asarray(series, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"series must be 2-D (n_series, n_samples), got {data.shape}")
    n = data.shape[0]
    if n == 0:
        raise ValueError("need at least one series")
    raw = np.vstack([feature_vector(row, period=period) for row in data])
    features = _standardize_columns(raw)
    if n == 1:
        return FeatureClusterResult(
            labels=(0,), signatures=(0,), n_clusters=1, silhouette=0.0, features=features
        )

    diff = features[:, None, :] - features[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=2))
    clustering = HierarchicalClustering(distances)

    upper = max_clusters if max_clusters is not None else n // 2
    upper = int(np.clip(upper, 2, n))
    # Same machinery as the DTW path: one incremental replay for all cuts,
    # one vectorized silhouette sweep over the shared distance matrix.
    sweep = clustering.cuts(range(2, upper + 1))
    score, k, labels = best_silhouette_cut(distances, sweep)

    signatures = []
    for members in clusters_as_lists(labels):
        centroid = features[members].mean(axis=0)
        offsets = ((features[members] - centroid) ** 2).sum(axis=1)
        signatures.append(members[int(np.argmin(offsets))])
    return FeatureClusterResult(
        labels=tuple(labels),
        signatures=tuple(signatures),
        n_clusters=k,
        silhouette=score,
        features=features,
    )
