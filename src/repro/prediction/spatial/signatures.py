"""The two-step signature-set search and the fitted spatial model.

Step 1 proposes an initial signature set by time-series clustering (DTW or
CBC — see the sibling modules).  Step 2 checks the initial set for
multicollinearity with variance inflation factors and demotes signatures
with ``VIF > 4`` by stepwise regression: a cluster that looks distinct may
still be a linear combination of other clusters' signatures (the paper's
pitfall example), in which case its signature can be predicted instead of
temporally modelled.

The resulting :class:`SpatialModel` stores, for each *dependent* series, an
OLS model over the *signature* series (paper Eq. 1), and can reconstruct
the whole ``M x N`` series matrix from signature values — actual values for
in-sample fitting accuracy (Fig. 6b), or temporal-model predictions for the
full ATM pipeline (Fig. 9).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.prediction.spatial.cbc import DEFAULT_RHO_THRESHOLD, correlation_based_clusters
from repro.prediction.spatial.dtw_cluster import dtw_clusters
from repro.store import (
    ArtifactKey,
    config_fingerprint,
    data_fingerprint,
    default_store,
    register_codec,
)
from repro.timeseries.correlation import pairwise_correlation_matrix
from repro.timeseries.regression import OlsFit, fit_dependent_models, stepwise_eliminate

__all__ = [
    "SPATIAL_STAGE",
    "ClusteringMethod",
    "SignatureSearchConfig",
    "SpatialModel",
    "search_signature_set",
]

#: Artifact-store stage name of signature-search results.
SPATIAL_STAGE = "spatial"


class ClusteringMethod(enum.Enum):
    """Step-1 clustering flavor.

    DTW and CBC are the paper's two options; FEATURE is the cited
    feature-extraction alternative ([11]) implemented in
    :mod:`repro.prediction.spatial.features`.
    """

    DTW = "dtw"
    CBC = "cbc"
    FEATURE = "feature"


@dataclass(frozen=True)
class SignatureSearchConfig:
    """Configuration of the signature search.

    Attributes
    ----------
    method:
        DTW or CBC clustering for step 1.
    rho_threshold:
        CBC strong-correlation threshold (paper: 0.7).
    vif_threshold:
        Step-2 multicollinearity threshold (paper: 4).
    apply_stepwise:
        Disable to evaluate step 1 alone (the "Clustering" bars of Fig. 6).
    dtw_window:
        Sakoe-Chiba half-width for DTW (None = unconstrained).
    dtw_zscore:
        Standardize series before DTW.
    max_clusters:
        Upper bound of the DTW/feature silhouette sweep (None = n_series // 2).
    period:
        Seasonal period for feature extraction (FEATURE method only).
    """

    method: ClusteringMethod = ClusteringMethod.CBC
    rho_threshold: float = DEFAULT_RHO_THRESHOLD
    vif_threshold: float = 4.0
    apply_stepwise: bool = True
    dtw_window: Optional[int] = 12
    dtw_zscore: bool = True
    max_clusters: Optional[int] = None
    period: int = 96


@dataclass
class SpatialModel:
    """A fitted spatial model for one box's series matrix.

    ``signature_indices`` and ``dependent_indices`` partition
    ``range(n_series)``; ``models[k]`` regresses dependent series ``k`` on
    the signature series (in ``signature_indices`` order).
    """

    n_series: int
    signature_indices: Tuple[int, ...]
    dependent_indices: Tuple[int, ...]
    models: Dict[int, OlsFit] = field(repr=False)
    initial_signature_indices: Tuple[int, ...] = ()
    cluster_labels: Tuple[int, ...] = ()

    @property
    def signature_ratio(self) -> float:
        """Fraction of the original series kept as signatures (Fig. 6a metric)."""
        return len(self.signature_indices) / self.n_series

    def reconstruct(self, signature_values: np.ndarray) -> np.ndarray:
        """Build the full series matrix from signature series values.

        Parameters
        ----------
        signature_values:
            ``(n_signatures, T)`` matrix whose rows align with
            ``signature_indices`` — actual history for in-sample evaluation
            or temporal-model forecasts for prediction.

        Returns
        -------
        numpy.ndarray
            ``(n_series, T)``: signature rows pass through verbatim,
            dependent rows come from their OLS models.
        """
        sig = np.asarray(signature_values, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != len(self.signature_indices):
            raise ValueError(
                f"expected ({len(self.signature_indices)}, T) signature values, "
                f"got {sig.shape}"
            )
        t = sig.shape[1]
        out = np.zeros((self.n_series, t))
        out[list(self.signature_indices)] = sig
        if not self.dependent_indices:
            return out
        # All dependent rows in one (T, S) @ (S, D) matmul + intercepts.
        coef = np.column_stack(
            [self.models[idx].coefficients for idx in self.dependent_indices]
        )
        intercepts = np.array(
            [self.models[idx].intercept for idx in self.dependent_indices]
        )
        out[list(self.dependent_indices)] = (sig.T @ coef + intercepts).T
        return out

    def fitted(self, data: np.ndarray) -> np.ndarray:
        """In-sample reconstruction: feed the actual signature rows back."""
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != self.n_series:
            raise ValueError(f"expected ({self.n_series}, T) data, got {arr.shape}")
        return self.reconstruct(arr[list(self.signature_indices)])


def _initial_signatures(
    data: np.ndarray, config: SignatureSearchConfig
) -> Tuple[List[int], Tuple[int, ...], Optional[np.ndarray]]:
    """Run step-1 clustering; also return the correlation matrix if one was built.

    CBC already computes the full pairwise Pearson matrix; handing it back lets
    step 2 derive its Gram-based VIFs from the same matrix instead of
    recomputing the correlations.
    """
    if config.method is ClusteringMethod.DTW:
        result = dtw_clusters(
            data,
            window=config.dtw_window,
            zscore=config.dtw_zscore,
            max_clusters=config.max_clusters,
        )
        return list(result.signatures), result.labels, None
    if config.method is ClusteringMethod.FEATURE:
        from repro.prediction.spatial.features import feature_clusters

        result = feature_clusters(
            data, period=config.period, max_clusters=config.max_clusters
        )
        return list(result.signatures), result.labels, None
    corr = pairwise_correlation_matrix(data)
    result = correlation_based_clusters(
        data, rho_threshold=config.rho_threshold, corr=corr
    )
    return list(result.signatures), result.labels, corr


def search_signature_set(
    data: Sequence[Sequence[float]],
    config: Optional[SignatureSearchConfig] = None,
    key: Optional[ArtifactKey] = None,
) -> SpatialModel:
    """Run the full two-step signature search and fit the spatial model.

    Parameters
    ----------
    data:
        ``(n_series, T)`` training matrix — all demand series of one box
        (CPU and RAM stacked for the inter-resource model, or one resource
        only for the intra variants of Fig. 7).
    config:
        Search configuration; defaults to CBC + stepwise.
    key:
        The search's store key, when the caller has already computed it
        for ``(data, config)`` (a fleet chunk hashes each training slice
        once for its forecast and search keys); computed here otherwise.
    """
    cfg = config or SignatureSearchConfig()
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"data must be 2-D (n_series, T), got {arr.shape}")
    n_series = arr.shape[0]
    if n_series == 0:
        raise ValueError("need at least one series")

    # The search depends only on (training matrix, config); with a
    # persistent store (REPRO_STORE), re-runs of the same box under varying
    # ε/horizon, sibling pool workers and later runs read the stored model.
    # The content fingerprint can never alias two boxes whose data differ.
    # Without a store every get misses and every put is dropped, so the
    # key is not built at all.
    store = default_store()
    if store.persistent:
        if key is None:
            key = ArtifactKey(
                stage=SPATIAL_STAGE,
                data_fp=data_fingerprint(arr),
                config_fp=config_fingerprint(cfg),
            )
        cached = store.get(key)
        if cached is not None:
            return cached

    initial, labels, corr = _initial_signatures(arr, cfg)
    initial_sorted = sorted(initial)

    final = list(initial_sorted)
    if cfg.apply_stepwise and len(final) > 1:
        matrix = arr[final].T  # (T, n_initial_signatures)
        sub_corr = corr[np.ix_(final, final)] if corr is not None else None
        kept_cols, _removed = stepwise_eliminate(
            matrix, vif_threshold=cfg.vif_threshold, corr=sub_corr
        )
        final = sorted(final[col] for col in kept_cols)

    dependents = tuple(i for i in range(n_series) if i not in set(final))
    regressors = arr[final].T  # (T, n_signatures)
    fits = fit_dependent_models(regressors, arr[list(dependents)].T)
    models = dict(zip(dependents, fits))
    model = SpatialModel(
        n_series=n_series,
        signature_indices=tuple(final),
        dependent_indices=dependents,
        models=models,
        initial_signature_indices=tuple(initial_sorted),
        cluster_labels=tuple(labels),
    )
    obs.inc("spatial.search.computed")
    if store.persistent:
        store.put(key, model)
    return model


# ------------------------------------------------------------ store codec
def _encode_spatial(model: SpatialModel):
    """Serialize a :class:`SpatialModel` as index/coefficient arrays."""
    dep = list(model.dependent_indices)
    n_sig = len(model.signature_indices)
    arrays = {
        "signature_indices": np.asarray(model.signature_indices, dtype=np.int64),
        "dependent_indices": np.asarray(dep, dtype=np.int64),
        "initial_signature_indices": np.asarray(
            model.initial_signature_indices, dtype=np.int64
        ),
        "cluster_labels": np.asarray(model.cluster_labels, dtype=np.int64),
        "coefficients": (
            np.stack([model.models[idx].coefficients for idx in dep])
            if dep
            else np.zeros((0, n_sig))
        ),
        "intercepts": np.asarray([model.models[idx].intercept for idx in dep]),
        "r2": np.asarray([model.models[idx].r2 for idx in dep]),
        "residual_std": np.asarray(
            [model.models[idx].residual_std for idx in dep]
        ),
    }
    return arrays, {"n_series": model.n_series}


def _decode_spatial(arrays, meta) -> SpatialModel:
    dep = [int(i) for i in arrays["dependent_indices"]]
    models = {
        idx: OlsFit(
            intercept=float(arrays["intercepts"][row]),
            coefficients=np.array(arrays["coefficients"][row], dtype=float),
            r2=float(arrays["r2"][row]),
            residual_std=float(arrays["residual_std"][row]),
        )
        for row, idx in enumerate(dep)
    }
    return SpatialModel(
        n_series=int(meta["n_series"]),
        signature_indices=tuple(int(i) for i in arrays["signature_indices"]),
        dependent_indices=tuple(dep),
        models=models,
        initial_signature_indices=tuple(
            int(i) for i in arrays["initial_signature_indices"]
        ),
        cluster_labels=tuple(int(i) for i in arrays["cluster_labels"]),
    )


register_codec(SPATIAL_STAGE, _encode_spatial, _decode_spatial)
