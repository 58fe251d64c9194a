"""The per-box ATM stages: the box run, artifact keys, codecs and the tail.

One box's run is five stages, each consuming and producing serializable
artifacts:

    signature-search ──> temporal-fit ──> forecast ──> resize ──> evaluate

Both fleet drivers carry a box as a :class:`_BoxRun`: the box at one
evaluation window.  The offline chunk orchestrator
(:func:`repro.core.pipeline._run_box_atm_chunk`) runs it at the window
after the training slice; the online controller
(:class:`repro.core.online.OnlineAtmController`) runs step ``k`` at ``k``
horizons later.  This module owns that run, its search-free seasonal
rung (:meth:`_BoxRun.seasonal_forecast`), the resize → evaluate tail
(:func:`evaluate_forecast_stages`), the stages' store keys and the codecs
of the artifacts they materialize.  The artifacts in :mod:`repro.store`
(temporal fits are cheap relative to the search and travel inside the
forecast artifact; the resize allocations travel inside the box result):

``spatial``
    The fitted :class:`~repro.prediction.spatial.signatures.SpatialModel`,
    keyed by (training-matrix fingerprint, search-config fingerprint).
    Written by ``search_signature_set`` itself, so *every* caller —
    offline pipeline, online controller warm starts, ablation benches —
    shares one artifact per distinct (data, config) pair.
``forecast``
    The :class:`~repro.prediction.combined.BoxPrediction` for one
    (training matrix, prediction config, horizon) triple.  ε sweeps rerun
    sizing on top of stored forecasts without refitting anything.
``box_result``
    The complete per-box outcome of the fleet pipeline — accuracy,
    reductions, allocations, plus the degradation events that produced
    them — keyed by (box fingerprint, ATM config + active fault plan).
    ``--resume`` skips boxes whose result is already materialized.
``resize_eval``
    One box's :func:`~repro.resizing.evaluate.evaluate_box_resizing`
    sweep for the standalone Fig. 8 study (``repro resize --resume``).

Keys are content-addressed: the *data* fingerprint hashes the demand
matrices the stage actually consumed (so fault-poisoned slices can never
serve clean runs), the *config* fingerprint canonicalizes the governing
dataclasses (stable across field order), and the schema version
(``repro.store/v1``) rejects artifacts written by an incompatible layout.
The active fault plan is folded into the run-level keys for the same
reason as the data fingerprint: a degraded run's artifacts must not leak
into a clean one.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core import faults
from repro.core.config import AtmConfig
from repro.core.degrade import DegradationEvent, sanitize_demands
from repro.core.results import BoxAtmResult, PredictionAccuracy, accuracy_for_box
from repro.prediction.combined import BoxPrediction
from repro.prediction.registry import temporal_model_version
from repro.prediction.spatial.signatures import SPATIAL_STAGE, SpatialModel
from repro.prediction.temporal.seasonal import phase_aligned_slot_means_batch
from repro.resizing.evaluate import (
    BoxReduction,
    ResizingAlgorithm,
    evaluate_box_resizing,
)
from repro.store import (
    ArtifactKey,
    config_fingerprint,
    data_fingerprint,
    get_codec,
    register_codec,
)
from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, Resource

__all__ = [
    "BOX_RESULT_STAGE",
    "FORECAST_STAGE",
    "RESIZE_EVAL_STAGE",
    "SPATIAL_STAGE",
    "box_fingerprint",
    "box_result_key",
    "evaluate_forecast_stages",
    "forecast_key",
    "resize_eval_key",
]

#: Artifact-store stage names (``SPATIAL_STAGE`` re-exported for symmetry).
FORECAST_STAGE = "forecast"
BOX_RESULT_STAGE = "box_result"
RESIZE_EVAL_STAGE = "resize_eval"


# ------------------------------------------------------------------- keys
#: The box read last, its stacked demand matrix and (once computed) its
#: fingerprint.  The fleet engine keys each box right before its chunk
#: runs it, so one slot lets the key and the run share one read.
_last_read: list = [None, None, None]


def _box_demands(box: BoxTrace) -> np.ndarray:
    """``box.demand_matrix()`` (stacked CPU+RAM, read-only), read once per box in a row."""
    if _last_read[0] is not box:
        demands = box.demand_matrix()
        demands.flags.writeable = False
        _last_read[:] = [box, demands, None]
    return _last_read[1]


def box_fingerprint(box: BoxTrace) -> str:
    """Content fingerprint of everything a run reads from one box.

    A rendered scenario's fingerprint is folded in when present, so two
    scenarios sharing a fleet seed can never collide in the store; legacy
    boxes (``scenario_fp`` unset/None) hash exactly as before, keeping
    pre-scenario artifacts addressable.
    """
    demands = _box_demands(box)
    if _last_read[2] is None:
        payload = {
            "box_id": box.box_id,
            "interval_minutes": box.interval_minutes,
            "capacity": {r.value: box.capacity(r) for r in Resource},
            "allocations": {r.value: box.allocations(r) for r in Resource},
            "demands": demands,
        }
        if box.scenario_fp:
            payload["scenario"] = box.scenario_fp
        _last_read[2] = config_fingerprint(payload)
    return _last_read[2]


def forecast_key(train_demands: np.ndarray, config: AtmConfig) -> ArtifactKey:
    """Key of the forecast produced from ``train_demands`` under ``config``.

    Depends only on the training matrix, the prediction config and the
    horizon — *not* on ε or the sizing policies — so sizing-side sweeps
    share one stored forecast per box.
    """
    return ArtifactKey(
        stage=FORECAST_STAGE,
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


def box_result_key(box: BoxTrace, config: AtmConfig) -> ArtifactKey:
    """Key of one box's complete pipeline outcome.

    Folds the active fault plan in so artifacts computed under injected
    faults can never serve a clean run (and vice versa).  The constant
    ``"degrade": True`` entry records the one failure contract (every
    fleet run degrades); it stays in the payload so stored keys keep
    their bytes.
    """
    return ArtifactKey(
        stage=BOX_RESULT_STAGE,
        data_fp=box_fingerprint(box),
        config_fp=config_fingerprint(
            {
                "config": config,
                "degrade": True,
                "faults": faults.active_plan(),
            }
        ),
    )


def resize_eval_key(
    box: BoxTrace,
    policy: TicketPolicy,
    algorithms: Sequence[ResizingAlgorithm],
    eval_windows: Optional[int],
    epsilon_pct: float,
) -> ArtifactKey:
    """Key of one box's standalone resizing sweep (the Fig. 8 study).

    Like :func:`box_result_key`, it keeps the constant entries of options
    that are gone (sizing demands, resources, ``"degrade"``) so stored
    keys keep their bytes.
    """
    resources = (Resource.CPU, Resource.RAM)
    return ArtifactKey(
        stage=RESIZE_EVAL_STAGE,
        data_fp=config_fingerprint(
            {
                "box": box_fingerprint(box),
                "sizing": {resource.value: None for resource in resources},
            }
        ),
        config_fp=config_fingerprint(
            {
                "resources": [resource.value for resource in resources],
                "policy": policy,
                "algorithms": list(algorithms),
                "eval_windows": eval_windows,
                "epsilon_pct": epsilon_pct,
                "degrade": True,
                "faults": faults.active_plan(),
            }
        ),
    )


# ---------------------------------------------------------------- box run
class _BoxRun:
    """One box at one evaluation window, as both fleet drivers carry it.

    ``start`` is the first window the run evaluates (offline:
    ``config.training_windows``).  Out of one demand matrix (``demands``,
    read from the box when not given) the run takes:

    * the training slice ``[start - training_windows, start)``, NaN-poisoned
      by the ``nan_train`` fault hook, so a poisoned slice changes the
      forecast's data fingerprint instead of tainting stored results;
    * the evaluation slice ``[start, start + horizon)``;
    * the sizing floors: each series' peak over the day before ``start``
      ("peak usage before resizing"), the lookback clamped at the start
      of the trace.

    Each rung's other fault hook fires as the rung takes the slice:
    ``fit_error`` in :meth:`training_demands`, ``fallback_error`` in
    :meth:`seasonal_forecast`.
    """

    def __init__(
        self,
        box: BoxTrace,
        config: AtmConfig,
        start: int,
        demands: Optional[np.ndarray] = None,
    ) -> None:
        self.box = box
        self.config = config
        if demands is None:
            demands = _box_demands(box)
        self.train = faults.poison_training(
            box.box_id, demands[:, start - config.training_windows : start]
        )
        self.actual = demands[:, start : start + config.horizon_windows]
        lookback = demands[:, max(0, start - box.windows_per_day) : start]
        self.floors = lookback.max(axis=1)

    def training_demands(self) -> np.ndarray:
        """The primary rung's training slice; the ``fit_error`` hook fires here."""
        faults.inject_fault("fit_error", self.box.box_id)
        return self.train

    def seasonal_forecast(self) -> BoxPrediction:
        """The seasonal rung: per-series slot means of the sanitized slice.

        It runs no signature search, which may be the failing component,
        so every series is forecast on its own (signature ratio 1.0).
        Non-finite training samples are sanitized, so it survives the
        NaN-poisoned slices the primary rejects.
        """
        faults.inject_fault("fallback_error", self.box.box_id)
        period = self.config.prediction.period
        with obs.span("stages.seasonal_forecast"):
            slot_means = phase_aligned_slot_means_batch(
                sanitize_demands(self.train), period
            )
        slots = np.arange(self.config.horizon_windows) % period
        n_series = slot_means.shape[0]
        every_series = SpatialModel(
            n_series=n_series,
            signature_indices=tuple(range(n_series)),
            dependent_indices=(),
            models={},
        )
        return BoxPrediction(
            predictions=np.maximum(slot_means[:, slots], 0.0),
            spatial=every_series,
            temporal_model="seasonal_mean",
        )

    def split(self, stacked: np.ndarray) -> Dict[Resource, np.ndarray]:
        """Split a stacked CPU+RAM array (first axis 2M) into per-resource rows."""
        return {r: stacked[self.box.rows(r)] for r in (Resource.CPU, Resource.RAM)}


# ------------------------------------------------------- resize → evaluate
def evaluate_forecast_stages(run: _BoxRun, prediction: BoxPrediction) -> BoxAtmResult:
    """The resize → evaluate stages downstream of one box's forecast.

    ``run`` supplies the box, the config (whose ``algorithms`` are sized,
    ATM always among them), the evaluation slice and the sizing floors.
    """
    box = run.box
    cfg = run.config
    per_resource = run.split(prediction.predictions)

    # Peak windows: actual usage above the ticket threshold.
    peak_thresholds = np.empty(2 * box.n_vms)
    for resource in (Resource.CPU, Resource.RAM):
        peak_thresholds[box.rows(resource)] = cfg.policy.alpha * box.allocations(resource)
    accuracy = accuracy_for_box(
        box.box_id,
        run.actual,
        prediction.predictions,
        peak_thresholds,
        prediction.signature_ratio,
    )

    # One sizing per box and resource: the ATM entry's allocation is the
    # box's next-window allocation, so ATM is solved even when the config
    # does not evaluate it.
    algorithms = tuple(cfg.algorithms)
    if ResizingAlgorithm.ATM not in algorithms:
        algorithms += (ResizingAlgorithm.ATM,)
    reductions: Dict[Tuple[Resource, ResizingAlgorithm], BoxReduction] = {}
    allocations: Dict[Resource, np.ndarray] = {}
    actual_by_resource = run.split(run.actual)
    floors = run.split(run.floors)
    for resource in (Resource.CPU, Resource.RAM):
        sized = evaluate_box_resizing(
            box,
            resource,
            cfg.policy,
            algorithms,
            eval_demands=actual_by_resource[resource],
            sizing_demands=per_resource[resource],
            epsilon_pct=cfg.epsilon_pct,
            lower_bounds=floors[resource],
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


# ----------------------------------------------------------------- codecs
def _encode_forecast(prediction: BoxPrediction):
    spatial_codec = get_codec(SPATIAL_STAGE)
    assert spatial_codec is not None
    sp_arrays, sp_meta = spatial_codec.encode(prediction.spatial)
    arrays = {"predictions": np.asarray(prediction.predictions, dtype=float)}
    for name, arr in sp_arrays.items():
        arrays[f"spatial__{name}"] = arr
    return arrays, {"temporal_model": prediction.temporal_model, "spatial": sp_meta}


def _decode_forecast(arrays, meta) -> BoxPrediction:
    spatial_codec = get_codec(SPATIAL_STAGE)
    assert spatial_codec is not None
    prefix = "spatial__"
    sp_arrays = {
        name[len(prefix) :]: arr
        for name, arr in arrays.items()
        if name.startswith(prefix)
    }
    return BoxPrediction(
        predictions=np.array(arrays["predictions"], dtype=float),
        spatial=spatial_codec.decode(sp_arrays, meta["spatial"]),
        temporal_model=str(meta["temporal_model"]),
    )


def _encode_reduction(reduction: BoxReduction) -> dict:
    # int()/bool(): ticket counts and feasibility may arrive as numpy
    # scalars, which the JSON header writer rejects.
    return {
        "box_id": reduction.box_id,
        "resource": reduction.resource.value,
        "algorithm": reduction.algorithm.value,
        "tickets_before": int(reduction.tickets_before),
        "tickets_after": int(reduction.tickets_after),
        "feasible": bool(reduction.feasible),
    }


def _decode_reduction(item: dict) -> BoxReduction:
    return BoxReduction(
        box_id=str(item["box_id"]),
        resource=Resource(item["resource"]),
        algorithm=ResizingAlgorithm(item["algorithm"]),
        tickets_before=int(item["tickets_before"]),
        tickets_after=int(item["tickets_after"]),
        feasible=bool(item["feasible"]),
    )


def _encode_box_result(value):
    """Encode the pipeline's per-box ``(result | None, events)`` pair."""
    result, events = value
    arrays = {}
    meta = {"events": [event.to_dict() for event in events], "failed": result is None}
    if result is not None:
        meta["box_id"] = result.box_id
        meta["accuracy"] = {
            "ape": float(result.accuracy.ape),
            "peak_ape": float(result.accuracy.peak_ape),
            "signature_ratio": float(result.accuracy.signature_ratio),
        }
        meta["reductions"] = [
            _encode_reduction(r) for r in result.reductions.values()
        ]
        for resource, arr in result.predicted.items():
            arrays[f"predicted__{resource.value}"] = np.asarray(arr, dtype=float)
        for resource, arr in result.allocations.items():
            arrays[f"alloc__{resource.value}"] = np.asarray(arr, dtype=float)
    return arrays, meta


def _decode_box_result(arrays, meta):
    events = [DegradationEvent.from_dict(raw) for raw in meta["events"]]
    if meta["failed"]:
        return None, events
    box_id = str(meta["box_id"])
    reductions = {}
    for item in meta["reductions"]:
        reduction = _decode_reduction(item)
        reductions[(reduction.resource, reduction.algorithm)] = reduction
    result = BoxAtmResult(
        box_id=box_id,
        accuracy=PredictionAccuracy(
            box_id=box_id,
            ape=float(meta["accuracy"]["ape"]),
            peak_ape=float(meta["accuracy"]["peak_ape"]),
            signature_ratio=float(meta["accuracy"]["signature_ratio"]),
        ),
        reductions=reductions,
        predicted={
            resource: np.array(arrays[f"predicted__{resource.value}"], dtype=float)
            for resource in Resource
            if f"predicted__{resource.value}" in arrays
        },
        allocations={
            resource: np.array(arrays[f"alloc__{resource.value}"], dtype=float)
            for resource in Resource
            if f"alloc__{resource.value}" in arrays
        },
    )
    return result, events


def _encode_resize_eval(value):
    """Encode a resize sweep's ``(reductions, events)`` pair."""
    reductions, events = value
    meta = {
        "reductions": [_encode_reduction(r) for r in reductions],
        "events": [event.to_dict() for event in events],
    }
    return {}, meta


def _decode_resize_eval(arrays, meta):
    return (
        [_decode_reduction(item) for item in meta["reductions"]],
        [DegradationEvent.from_dict(raw) for raw in meta["events"]],
    )


register_codec(FORECAST_STAGE, _encode_forecast, _decode_forecast)
register_codec(BOX_RESULT_STAGE, _encode_box_result, _decode_box_result)
register_codec(RESIZE_EVAL_STAGE, _encode_resize_eval, _decode_resize_eval)
