"""Per-box reference run of offline ATM: the oracle of the chunk orchestrator.

The definitional path of one box through the offline pipeline, one box
at a time: :class:`AtmController` fits the spatial-temporal predictor on
the box's training slice, forecasts the horizon and sizes the box, and
:func:`run_box_atm` climbs the degradation ladder around it (configured
model → seasonal rung → reported failure) and persists the
``(result, events)`` pair under the box's ``box_result`` key.  The
seasonal rung fits one :class:`SeasonalMeanPredictor` per series of the
sanitized training slice, a different code path from the production
rung's one batched slot-mean pass.

Production runs every box through the chunk orchestrator
(:func:`repro.core.pipeline._run_box_atm_chunk`), which gathers a chunk's
boxes, fits their signature series in one pass per rung and evaluates
them afterwards.  Its claim is that the reordering is observable only as
wall-clock: same results, same degradation events, same counters and the
same store artifacts as this path.  ``tests/core/test_fused_pipeline.py``
runs both and compares.

Not collected as a test module (no ``test_`` prefix).  Importable from
the repository root as ``tests.core.atm_oracle``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core import faults, stages
from repro.core.config import AtmConfig
from repro.core.degrade import (
    RUNG_FAILED,
    RUNG_PRIMARY,
    RUNG_SEASONAL,
    DegradationEvent,
    sanitize_demands,
)
from repro.core.executor import resume_probe
from repro.core.results import BoxAtmResult, accuracy_for_box
from repro.prediction.combined import BoxPrediction, SpatialTemporalPredictor
from repro.prediction.temporal.naive import SeasonalMeanPredictor
from repro.resizing.evaluate import (
    BoxReduction,
    ResizingAlgorithm,
    evaluate_box_resizing,
    size_box_resource,
)
from repro.prediction.registry import temporal_model_version
from repro.store import ArtifactKey, config_fingerprint, data_fingerprint, default_store
from repro.store.shards import resolve_box
from repro.trace.model import BoxTrace, Resource

__all__ = ["AtmController", "BoxOutcome", "forecast_key", "run_box_atm", "run_box_ladder"]

#: One box's outcome: its result (``None`` = failed) and degradation events.
BoxOutcome = Tuple[Optional[BoxAtmResult], List[DegradationEvent]]


class AtmController:
    """ATM for a single box.

    ``rung`` names the degradation-ladder rung this controller serves
    (see :mod:`repro.core.degrade`): the default ``"primary"`` runs the
    configured model on the raw training slice; ``"seasonal_mean"`` is
    the rung the ladder falls back to after a primary failure — it
    sanitizes non-finite training samples (surviving NaN-poisoned slices
    the primary correctly rejects), runs no signature search and answers
    to the ``fallback_error`` fault kind instead of ``fit_error``.
    """

    def __init__(
        self,
        box: BoxTrace,
        config: Optional[AtmConfig] = None,
        rung: str = RUNG_PRIMARY,
    ) -> None:
        self.box = box
        self.config = config or AtmConfig()
        self.rung = rung
        self._predictor: Optional[SpatialTemporalPredictor] = None

    # ------------------------------------------------------------------ train
    def _training_demands(self, train_windows: Optional[int] = None) -> np.ndarray:
        """Materialize the training slice (fault hooks included).

        This is the stage graph's input boundary: every fault that can
        corrupt or abort training fires *here*, before any artifact-store
        lookup, so poisoned slices change the artifact's data fingerprint
        (and fit errors raise) rather than tainting stored results.
        """
        windows = train_windows or self.config.training_windows
        windows = min(windows, self.box.n_windows)
        demands = self.box.demand_matrix()[:, :windows]  # stacked CPU+RAM
        demands = faults.poison_training(self.box.box_id, demands)
        if self.rung == RUNG_PRIMARY:
            faults.inject_fault("fit_error", self.box.box_id)
        else:
            faults.inject_fault("fallback_error", self.box.box_id)
            demands = sanitize_demands(demands)
        return demands

    def fit(self, train_windows: Optional[int] = None) -> "AtmController":
        """Fit the spatial-temporal predictor on the first training windows."""
        demands = self._training_demands(train_windows)
        with obs.span("atm.fit"):
            self._predictor = SpatialTemporalPredictor(self.config.prediction).fit(
                demands
            )
        return self

    @property
    def is_fitted(self) -> bool:
        return self._predictor is not None

    @property
    def signature_ratio(self) -> float:
        if self._predictor is None:
            raise RuntimeError("controller has not been fitted")
        return self._predictor.spatial_model.signature_ratio

    # ---------------------------------------------------------------- predict
    def predict(self, horizon: Optional[int] = None) -> BoxPrediction:
        """Forecast every demand series for the next resizing window."""
        if self._predictor is None:
            raise RuntimeError("controller has not been fitted")
        return self._predictor.predict(horizon or self.config.horizon_windows)

    def split_prediction(self, prediction: BoxPrediction) -> Dict[Resource, np.ndarray]:
        """Split a stacked (2M, H) prediction into per-resource matrices."""
        m = self.box.n_vms
        return {
            Resource.CPU: prediction.predictions[:m],
            Resource.RAM: prediction.predictions[m:],
        }

    # ----------------------------------------------------------------- resize
    def resize(
        self,
        predicted: Dict[Resource, np.ndarray],
        lower_bounds: Optional[Dict[Resource, np.ndarray]] = None,
    ) -> Dict[Resource, np.ndarray]:
        """Compute next-window capacity allocations from predicted demands.

        Returns per-resource allocation vectors; falls back to the current
        allocation when the greedy cannot satisfy the bounds.
        """
        allocations: Dict[Resource, np.ndarray] = {}
        for resource, demands in predicted.items():
            bounds = None if lower_bounds is None else lower_bounds.get(resource)
            if bounds is None:
                bounds = self._default_lower_bounds(resource)
            [(_, allocations[resource])] = size_box_resource(
                self.box.box_id,
                resource,
                self.box.allocations(resource),
                self.box.capacity(resource),
                self.config.policy,
                (ResizingAlgorithm.ATM,),
                eval_demands=demands,
                epsilon_pct=self.config.epsilon_pct,
                lower_bounds=bounds,
            )
        return allocations

    def _default_lower_bounds(self, resource: Resource) -> np.ndarray:
        """Peak demand of the day before the evaluation window.

        The paper's "peak usage before resizing", read from the box's
        trace (never from a poisoned training slice) and clamped at the
        start of the trace.
        """
        start = self.config.training_windows
        lo = max(0, start - self.box.windows_per_day)
        return self.box.demand_matrix(resource)[:, lo:start].max(axis=1)

    def seasonal_forecast(self) -> np.ndarray:
        """The seasonal rung's ``(2M, H)`` forecast.

        One seasonal-mean predictor per series of the sanitized training
        slice, floored at 0; no signature search.
        """
        demands = self._training_demands()
        period = self.config.prediction.period
        horizon = self.config.horizon_windows
        return np.vstack(
            [
                np.maximum(SeasonalMeanPredictor(period).fit(row).predict(horizon), 0.0)
                for row in demands
            ]
        )

    # ------------------------------------------------------------ end to end
    def run(self) -> BoxAtmResult:
        """Full post-hoc evaluation on this box's trace.

        Trains on the configured training windows, predicts the following
        resizing window, evaluates prediction accuracy against the actual
        demands, and compares sizing policies with the predicted demands as
        sizing input (the Fig. 9/10 pipeline for a single box).
        """
        cfg = self.config
        if self.box.n_windows < cfg.training_windows + cfg.horizon_windows:
            raise ValueError(
                f"box {self.box.box_id} has {self.box.n_windows} windows; "
                f"need {cfg.training_windows + cfg.horizon_windows} for "
                f"train + horizon"
            )
        if self.rung == RUNG_SEASONAL:
            # Every series is forecast on its own: signature ratio 1.0.
            return evaluate_forecast_stages(self, self.seasonal_forecast(), 1.0)
        prediction = acquire_forecast(self)
        return evaluate_forecast_stages(
            self, prediction.predictions, prediction.signature_ratio
        )


# ------------------------------------------------------------------ stages
def forecast_key(train_demands: np.ndarray, config: AtmConfig) -> ArtifactKey:
    """Key of the forecast produced from ``train_demands`` under ``config``.

    The one-off form production keyed forecasts with before fleet runs
    fingerprinted their config halves once
    (:meth:`repro.core.stages.RunKeys.training_keys`).
    """
    return ArtifactKey(
        stage=stages.FORECAST_STAGE,
        data_fp=data_fingerprint(train_demands),
        config_fp=config_fingerprint(
            {
                "prediction": config.prediction,
                "horizon": config.horizon_windows,
                "temporal_model_version": temporal_model_version(
                    config.prediction.temporal_model
                ),
            }
        ),
    )


def probe_forecast(
    controller: AtmController,
) -> Tuple[np.ndarray, Optional[ArtifactKey], Optional[BoxPrediction]]:
    """Materialize the training slice and probe the forecast artifact.

    Fault hooks fire inside ``_training_demands`` (so poisoned slices
    change the key rather than serve stale artifacts), then the store is
    consulted.  Returns ``(demands, key, prediction)`` with
    ``key``/``prediction`` ``None`` when there is no persistent store / no
    stored forecast.
    """
    demands = controller._training_demands()
    store = default_store()
    key = forecast_key(demands, controller.config) if store.persistent else None
    prediction = store.get(key) if key is not None else None
    if prediction is not None:
        obs.inc("stages.forecast.hits")
    return demands, key, prediction


def store_forecast(key: Optional[ArtifactKey], prediction: BoxPrediction) -> None:
    """Persist a freshly computed forecast artifact (no-op without a key)."""
    if key is not None:
        default_store().put(key, prediction)


def acquire_forecast(controller: AtmController) -> BoxPrediction:
    """The forecast stage: serve the stored artifact or fit and predict.

    With a persistent store a stored forecast short-circuits the signature
    search and every temporal fit, and the run proceeds straight to
    sizing.
    """
    cfg = controller.config
    horizon = cfg.horizon_windows
    if controller.is_fitted:
        # Pre-fitted path: honour whatever the caller fitted.
        return controller.predict(horizon)
    demands, key, prediction = probe_forecast(controller)
    if prediction is None:
        with obs.span("atm.fit"):
            controller._predictor = SpatialTemporalPredictor(
                cfg.prediction
            ).fit(demands)
        prediction = controller.predict(horizon)
        store_forecast(key, prediction)
    return prediction


def evaluate_forecast_stages(
    controller: AtmController, predictions: np.ndarray, signature_ratio: float
) -> BoxAtmResult:
    """The resize → evaluate stages downstream of a ``(2M, H)`` forecast."""
    box = controller.box
    cfg = controller.config
    horizon = cfg.horizon_windows
    m = box.n_vms
    per_resource = {Resource.CPU: predictions[:m], Resource.RAM: predictions[m:]}

    lo = cfg.training_windows
    actual = box.demand_matrix()[:, lo : lo + horizon]
    # Peak windows: actual usage above the ticket threshold.
    peak_thresholds = np.concatenate(
        [
            cfg.policy.alpha * box.allocations(Resource.CPU),
            cfg.policy.alpha * box.allocations(Resource.RAM),
        ]
    )
    accuracy = accuracy_for_box(
        box.box_id, actual, predictions, peak_thresholds, signature_ratio
    )

    # One sizing per box and resource: the ATM entry's allocation is the
    # box's next-window allocation, so ATM is solved even when the config
    # does not evaluate it.
    algorithms = tuple(cfg.algorithms)
    if ResizingAlgorithm.ATM not in algorithms:
        algorithms += (ResizingAlgorithm.ATM,)
    reductions: Dict[Tuple[Resource, ResizingAlgorithm], BoxReduction] = {}
    allocations: Dict[Resource, np.ndarray] = {}
    for resource in (Resource.CPU, Resource.RAM):
        rows = slice(0, m) if resource is Resource.CPU else slice(m, 2 * m)
        sized = evaluate_box_resizing(
            box,
            resource,
            cfg.policy,
            algorithms,
            eval_demands=actual[rows],
            sizing_demands=per_resource[resource],
            epsilon_pct=cfg.epsilon_pct,
            lower_bounds=controller._default_lower_bounds(resource),
        )
        for reduction, allocation in sized:
            if reduction.algorithm is ResizingAlgorithm.ATM:
                allocations[resource] = allocation
            if reduction.algorithm in cfg.algorithms:
                reductions[(resource, reduction.algorithm)] = reduction

    return BoxAtmResult(
        box_id=box.box_id,
        accuracy=accuracy,
        reductions=reductions,
        predicted=per_resource,
        allocations=allocations,
    )


# ------------------------------------------------------------------ ladder
def run_box_atm(box, config: AtmConfig, resume: bool = False) -> BoxOutcome:
    """Per-box unit of work: store probe, then the degradation ladder.

    ``box`` may be a shard descriptor, mapped here; the ``(result,
    events)`` pair is the box's resumable artifact
    (:func:`~repro.core.executor.resume_probe`, namespace ``pipeline``).
    """
    box = resolve_box(box)
    cached, save = resume_probe(
        "pipeline", lambda: stages.box_result_key(box, config), resume
    )
    if cached is not None:
        result, events = cached
        return result, list(events)
    pair = run_box_ladder(box, config)
    save(pair)
    return pair


def run_box_ladder(box, config: AtmConfig) -> BoxOutcome:
    """The degradation ladder itself (no store interaction)."""
    events: List[DegradationEvent] = []
    try:
        with obs.span("pipeline.box_run"):
            return AtmController(box, config).run(), events
    except Exception as exc:
        obs.inc("pipeline.fallback.seasonal")
        events.append(
            DegradationEvent(
                box_id=box.box_id,
                stage="fit",
                rung=RUNG_SEASONAL,
                reason=repr(exc),
            )
        )
    try:
        return AtmController(box, config, rung=RUNG_SEASONAL).run(), events
    except Exception as exc:
        obs.inc("pipeline.boxes_failed")
        events.append(
            DegradationEvent(
                box_id=box.box_id,
                stage="fit",
                rung=RUNG_FAILED,
                reason=repr(exc),
            )
        )
        return None, events
