"""Spatial models: signature-set search and dependent-series regression.

* :mod:`repro.prediction.spatial.cbc` — the paper's correlation-based
  clustering (CBC).
* :mod:`repro.prediction.spatial.dtw_cluster` — DTW + hierarchical
  clustering with silhouette-optimal cluster counts.
* :mod:`repro.prediction.spatial.signatures` — the two-step signature
  search (clustering, then VIF + stepwise regression) and the fitted
  :class:`~repro.prediction.spatial.signatures.SpatialModel`.
"""

from repro.prediction.spatial.cbc import CbcResult, correlation_based_clusters
from repro.prediction.spatial.dtw_cluster import DtwClusterResult, dtw_clusters
from repro.prediction.spatial.features import FeatureClusterResult, feature_clusters
from repro.prediction.spatial.signatures import (
    ClusteringMethod,
    SignatureSearchConfig,
    SpatialModel,
    search_signature_set,
)

__all__ = [
    "CbcResult",
    "ClusteringMethod",
    "DtwClusterResult",
    "FeatureClusterResult",
    "feature_clusters",
    "SignatureSearchConfig",
    "SpatialModel",
    "correlation_based_clusters",
    "dtw_clusters",
    "search_signature_set",
]
