"""The full ATM spatial-temporal predictor for one box.

Fitting: run the signature search on the training matrix, then fit one
temporal model per signature series through the registry
(:mod:`repro.prediction.registry`), which hands them to the model's
multi-series kernel in one call when it has one (the neural default does;
other models fit series by series).  Predicting:
forecast the signatures temporally, then reconstruct every dependent series
through its spatial (linear) model — the expensive temporal machinery runs
only on the reduced signature set, which is the paper's entire scalability
argument.

The spatial half of the pipeline (signature search and reconstruction) runs
on vectorized linear algebra: Gram-based VIF stepwise elimination sharing
CBC's correlation matrix, one multi-RHS ``lstsq`` for all dependent models,
and a single-matmul reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.prediction.base import TemporalPredictor
from repro.prediction.registry import fit_temporal_batch
from repro.prediction.spatial.signatures import (
    SignatureSearchConfig,
    SpatialModel,
    search_signature_set,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactKey

__all__ = ["SpatialTemporalConfig", "BoxPrediction", "SpatialTemporalPredictor"]


@dataclass(frozen=True)
class SpatialTemporalConfig:
    """Configuration of the combined predictor.

    Attributes
    ----------
    search:
        Signature-search settings (clustering method, VIF threshold, ...).
    temporal_model:
        Registry name of the signature-series model ("neural" reproduces
        the paper; cheaper baselines are available for ablations).
    period:
        Seasonal period in windows (96 = daily at 15 minutes).
    clip_min / clip_max:
        Forecast clipping bounds; demand series are non-negative, so the
        default floor is 0.  ``clip_max`` may be ``None`` (no ceiling) or a
        per-series array (e.g. allocated capacities).
    """

    search: SignatureSearchConfig = field(default_factory=SignatureSearchConfig)
    temporal_model: str = "neural"
    period: int = 96
    clip_min: float = 0.0
    clip_max: Optional[float] = None


@dataclass
class BoxPrediction:
    """Forecast of a whole box: the matrix plus provenance for analysis."""

    predictions: np.ndarray  # (n_series, horizon)
    spatial: SpatialModel
    temporal_model: str

    @property
    def n_series(self) -> int:
        return self.predictions.shape[0]

    @property
    def signature_ratio(self) -> float:
        return self.spatial.signature_ratio


class SpatialTemporalPredictor:
    """ATM prediction for one box's ``(n_series, T)`` demand matrix."""

    def __init__(self, config: Optional[SpatialTemporalConfig] = None) -> None:
        self.config = config or SpatialTemporalConfig()
        self._spatial: Optional[SpatialModel] = None
        self._temporal: Dict[int, TemporalPredictor] = {}
        self._train: Optional[np.ndarray] = None
        self._warm_state: Optional[object] = None
        self._baseline_recon_error: Optional[float] = None
        self._pending_train: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        return self._spatial is not None

    @property
    def spatial_model(self) -> SpatialModel:
        if self._spatial is None:
            raise RuntimeError("predictor has not been fitted")
        return self._spatial

    @property
    def warm_state(self) -> Optional[object]:
        """The warm-refit chain's state after the last temporal fit.

        The state the last :meth:`finish_fit` was handed; ``None`` before
        any fit, after a new signature search and after :meth:`fit`,
        whose one-shot fit is cold, so the next refit fits cold.  A
        chained fit phase passes it as the box's initializer (see
        :func:`repro.core.stages.fit_pending`).
        """
        return self._warm_state

    def fit(self, train_matrix: Sequence[Sequence[float]]) -> "SpatialTemporalPredictor":
        """Fit signature search, spatial models and per-signature temporal models."""
        histories = self.begin_fit(train_matrix)
        name, period = self.config.temporal_model, self.config.period
        with obs.span("predict.temporal_fit"):
            fitted = fit_temporal_batch(name, histories, period=period)
        return self.finish_fit(fitted)

    def begin_fit(
        self,
        train_matrix: Sequence[Sequence[float]],
        spatial_key: Optional[ArtifactKey] = None,
    ) -> "list[np.ndarray]":
        """First half of :meth:`fit`: signature search, temporal fits deferred.

        Runs the spatial stage exactly as :meth:`fit` would and returns
        the signature histories (rows of the training matrix, in
        signature-index order) instead of fitting them.  The caller hands
        those histories to an external fitter — the fleet-fused plane
        batches all boxes of a chunk into one pass — and completes the
        predictor with :meth:`finish_fit`.  A ``begin_fit`` must be paired
        with a ``finish_fit`` before :meth:`predict` is usable.
        ``spatial_key`` is the search's store key when the caller already
        holds it (see :func:`search_signature_set`).
        """
        arr = self._validate_train(train_matrix)
        obs.inc("predict.fits")
        with obs.span("predict.signature_search"):
            spatial = search_signature_set(arr, self.config.search, key=spatial_key)
        self._spatial = spatial
        self._warm_state = None  # a new spatial model resets the refit chain
        self._baseline_recon_error = None  # taken by the search's finish_fit
        self._temporal = {}
        self._pending_train = arr
        return [arr[idx] for idx in spatial.signature_indices]

    def finish_fit(
        self, fitted: Sequence[TemporalPredictor], warm_state: Optional[object] = None
    ) -> "SpatialTemporalPredictor":
        """Second half of :meth:`fit`: adopt externally fitted temporal models.

        Completes either begin, :meth:`begin_fit` or
        :meth:`begin_refit_temporal`.  ``fitted`` must hold one model per
        signature history the begin returned, in the same order, and
        ``warm_state`` is the state a chained fitter returned with them.
        The resulting predictor state is exactly what :meth:`fit` would
        have produced had it fitted the same models inline (the fused
        kernel guarantees the models themselves are bit-identical, so the
        whole predictor is).  The baseline reconstruction error is taken
        only after a search: a refit keeps the last search's.
        """
        if self._spatial is None or self._pending_train is None:
            raise RuntimeError(
                "finish_fit requires a preceding begin_fit or begin_refit_temporal"
            )
        arr = self._pending_train
        self._pending_train = None
        indices = list(self._spatial.signature_indices)
        if len(fitted) != len(indices):
            raise ValueError(
                f"got {len(fitted)} fitted temporal models for "
                f"{len(indices)} signature series"
            )
        self._temporal = dict(zip(indices, fitted))
        self._train = arr
        self._warm_state = warm_state
        if self._baseline_recon_error is None:
            self._baseline_recon_error = self.reconstruction_error(arr)
        return self

    @staticmethod
    def _validate_train(train_matrix: Sequence[Sequence[float]]) -> np.ndarray:
        arr = np.asarray(train_matrix, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"train matrix must be 2-D (n_series, T), got {arr.shape}")
        return arr

    def reconstruction_error(self, matrix: Sequence[Sequence[float]]) -> float:
        """Relative Frobenius error of the spatial in-sample reconstruction.

        ``||M - fitted(M)||_F / ||M||_F`` for a ``(n_series, T)`` matrix —
        how well the *current* signature set still explains ``matrix``.
        The value at fit time is kept as ``baseline_reconstruction_error``;
        the drift-gated online controller re-searches when the error on an
        advanced window rises materially above that baseline.
        """
        if self._spatial is None:
            raise RuntimeError("predictor has not been fitted")
        arr = np.asarray(matrix, dtype=float)
        denom = float(np.linalg.norm(arr))
        if denom <= 0.0:
            return 0.0
        return float(np.linalg.norm(arr - self._spatial.fitted(arr)) / denom)

    @property
    def baseline_reconstruction_error(self) -> float:
        """Reconstruction error of the training window the spatial model was fit on."""
        if self._baseline_recon_error is None:
            raise RuntimeError("predictor has not been fitted")
        return self._baseline_recon_error

    def begin_refit_temporal(
        self, train_matrix: Sequence[Sequence[float]]
    ) -> "list[np.ndarray]":
        """Re-anchor the temporal models on a new window: the first half.

        Keeps the fitted spatial model (signature set and reconstruction
        weights — the expensive search) and returns the signature
        histories of ``train_matrix`` for refitting, so forecasts continue
        from the advanced window.  This is the online controller's
        non-search step: cheap relative to a full :meth:`fit`, yet
        anchored to the data the step actually follows.  The caller fits
        the histories (the controller fits a whole chunk's refits in one
        call, warm-started from :attr:`warm_state`) and completes the
        predictor with :meth:`finish_fit`.
        """
        if self._spatial is None:
            raise RuntimeError("predictor has not been fitted")
        arr = self._validate_train(train_matrix)
        if self._train is not None and arr.shape[0] != self._train.shape[0]:
            raise ValueError(
                f"train matrix has {arr.shape[0]} series; the fitted spatial "
                f"model expects {self._train.shape[0]}"
            )
        obs.inc("predict.temporal_refits")
        self._pending_train = arr
        return [arr[idx] for idx in self._spatial.signature_indices]

    def predict(self, horizon: int) -> BoxPrediction:
        """Forecast every series of the box for the next ``horizon`` windows."""
        if self._spatial is None:
            raise RuntimeError("predictor has not been fitted")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        signature_forecasts = np.vstack(
            [self._temporal[idx].predict(horizon) for idx in self._spatial.signature_indices]
        )
        with obs.span("predict.reconstruct"):
            full = self._spatial.reconstruct(signature_forecasts)
        full = np.clip(full, self.config.clip_min, np.inf)
        if self.config.clip_max is not None:
            full = np.minimum(full, self.config.clip_max)
        return BoxPrediction(
            predictions=full,
            spatial=self._spatial,
            temporal_model=self.config.temporal_model,
        )

    def fit_predict(
        self, train_matrix: Sequence[Sequence[float]], horizon: int
    ) -> BoxPrediction:
        """Fit and forecast in one call."""
        return self.fit(train_matrix).predict(horizon)
