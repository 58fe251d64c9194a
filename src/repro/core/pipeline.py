"""Fleet-scale ATM evaluation (the Section V production-trace study).

Runs ATM on every box of a fleet and aggregates:

* the Fig. 9 prediction-accuracy CDFs (all windows and peak-only),
* the Fig. 10 ticket-reduction comparison driven by *predicted* demands,
* signature-set statistics (how much of the fleet needed temporal models).

Per-box runs are independent (the paper deploys ATM per box), so the fleet
loop is the shared engine :func:`repro.core.executor.run_fleet`: chunks of
boxes fan out across processes when ``jobs > 1`` and their results are
folded into the aggregates in box order as chunks land, so peak RSS stays
flat as the fleet grows.  At paper scale the fleet can be a
:class:`repro.store.shards.ShardedFleet`, whose workers receive shard
descriptors and memory-map their boxes locally.

A chunk is the unit of work (:func:`_run_box_atm_chunk`): its boxes'
training slices and signature searches are gathered first, their
signature series fit together in one call (one fused cross-box pass for
a model with a multi-series kernel, such as the neural default), and
each box is then forecast, sized and evaluated.  Because every fit is
bit-identical to a one-box fit, the reordering is observable only as
wall-clock.

A failing box degrades instead of aborting the fleet: it climbs the
policy ladder (configured model → seasonal-mean fallback → reported
failure) and :class:`FleetAtmResult.report` carries the structured
degradation events; healthy boxes are unaffected, bit for bit.  That
is the only failure mode: there is no fail-fast switch and no retry, as
the fault harness's faults are deterministic per box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import obs
from repro.core import faults, stages
from repro.core.config import AtmConfig
from repro.core.degrade import (
    RUNG_FAILED,
    RUNG_PRIMARY,
    RUNG_SEASONAL,
    DegradationEvent,
    ErrorReport,
    sanitize_demands,
)
from repro.core.executor import (
    default_chunksize, fleet_items, resolve_jobs, resume_probe, run_fleet,
)
from repro.core.results import BoxAtmResult, PredictionAccuracy, ape_cdf
from repro.prediction.combined import BoxPrediction, SpatialTemporalPredictor
from repro.prediction.registry import fit_temporal_fleet_batch
from repro.resizing.evaluate import FleetReduction, ResizingAlgorithm
from repro.store import ArtifactKey, default_store
from repro.store.shards import resolve_box
from repro.timeseries.ecdf import Ecdf
from repro.timeseries.metrics import finite_mean
from repro.trace.model import BoxTrace, FleetTrace, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.shards import ShardedFleet

__all__ = ["FUSED_CHUNK_BOXES", "FleetAtmResult", "run_fleet_atm"]

#: Upper bound on boxes gathered into one chunk.  The orchestrator holds
#: every gathered box's training slice and predictor live for the
#: duration of the chunk, so the cap keeps the per-worker
#: gather footprint flat (tens of MB at paper-sized boxes) and preserves
#: the sublinear peak-RSS scaling pinned by BENCH_scale.json — fusion
#: batches per chunk, never per fleet.
FUSED_CHUNK_BOXES = 64


@dataclass
class FleetAtmResult:
    """Aggregated outcome of an ATM run across a fleet."""

    config: AtmConfig
    accuracies: List[PredictionAccuracy] = field(default_factory=list)
    reduction: FleetReduction = field(default_factory=FleetReduction)
    box_results: List[BoxAtmResult] = field(default_factory=list)
    #: Structured degradation report: which boxes fell back to the
    #: seasonal-mean rung, which failed outright, and why.
    report: ErrorReport = field(default_factory=ErrorReport)

    # ---------------------------------------------------------------- Fig. 9
    def ape_cdf(self, peak: bool = False) -> Optional[Ecdf]:
        """CDF of per-box mean APE (peak-only when ``peak``)."""
        return ape_cdf(self.accuracies, peak=peak)

    def mean_ape(self, peak: bool = False) -> float:
        values = [a.peak_ape if peak else a.ape for a in self.accuracies]
        return finite_mean(values)

    # --------------------------------------------------------------- Fig. 10
    def mean_reduction(self, resource: Resource, algorithm: ResizingAlgorithm) -> float:
        return self.reduction.mean_reduction(resource, algorithm)

    def std_reduction(self, resource: Resource, algorithm: ResizingAlgorithm) -> float:
        return self.reduction.std_reduction(resource, algorithm)

    # ------------------------------------------------------------- signatures
    def mean_signature_ratio(self) -> float:
        return finite_mean([a.signature_ratio for a in self.accuracies])


def _seasonal_fallback_config(config: AtmConfig) -> AtmConfig:
    """The same ATM setup with the temporal model downgraded to seasonal-mean."""
    return replace(
        config,
        prediction=replace(config.prediction, temporal_model="seasonal_mean"),
    )


#: One box's outcome: its result (``None`` = failed) and degradation events.
BoxOutcome = Tuple[Optional[BoxAtmResult], List[DegradationEvent]]


class _BoxRun:
    """One box at one ladder rung, as the chunk orchestrator carries it.

    The primary rung runs the configured model on the raw training slice
    and answers to the ``fit_error`` fault kind; the seasonal rung
    sanitizes non-finite training samples (surviving NaN-poisoned slices
    the primary correctly rejects) and answers to ``fallback_error``.
    """

    def __init__(self, box: BoxTrace, config: AtmConfig, rung: str) -> None:
        self.box = box
        self.config = config
        self.rung = rung
        self.train: Optional[np.ndarray] = None
        self.predictor: Optional[SpatialTemporalPredictor] = None
        self.forecast_key: Optional[ArtifactKey] = None

    def training_demands(self) -> np.ndarray:
        """Materialize the training slice (fault hooks included).

        This is the run's input boundary: every fault that can corrupt or
        abort training fires *here*, before any artifact-store lookup, so
        poisoned slices change the forecast's data fingerprint (and fit
        errors raise) rather than tainting stored results.
        """
        box = self.box
        windows = min(self.config.training_windows, box.n_windows)
        demands = box.demand_matrix()[:, :windows]  # stacked CPU+RAM
        demands = faults.poison_training(box.box_id, demands)
        if self.rung == RUNG_PRIMARY:
            faults.inject_fault("fit_error", box.box_id)
        else:
            faults.inject_fault("fallback_error", box.box_id)
            demands = sanitize_demands(demands)
        self.train = demands
        return demands

    def lower_bounds(self, resource: Resource) -> np.ndarray:
        """Peak demand of the last training day — "peak usage before resizing"."""
        tail = self.split(self.train)[resource][:, -self.box.windows_per_day :]
        return tail.max(axis=1)

    def split(self, stacked: np.ndarray) -> Dict[Resource, np.ndarray]:
        """Split a stacked (2M, T) CPU+RAM matrix into per-resource rows."""
        return {r: stacked[self.box.rows(r)] for r in (Resource.CPU, Resource.RAM)}


def _run_rung(
    boxes: Sequence[BoxTrace], config: AtmConfig, rung: str
) -> Iterator[Union[BoxAtmResult, Exception]]:
    """Run a chunk's boxes at one ladder rung; yield each box's outcome in order.

    Four phases, each box isolated from the others' failures:

    * *gather* — each box's training slice (fault hooks included), its
      forecast probe in the persistent store, and its signature search;
    * *fit* — every gathered box's signature series in one
      :func:`~repro.prediction.registry.fit_temporal_fleet_batch` call
      (one cross-box pass for a kernel model, box by box otherwise);
    * *scatter* — each box's forecast, persisted in the store;
    * *evaluate* — each box's sizing and accuracy, as the boxes are
      yielded, so a caller that saves each outcome as it arrives leaves
      every finished box on disk if the run dies part-way.

    A box whose rung raises anywhere yields that exception instead of a
    result.
    """
    store = default_store()
    runs = [_BoxRun(box, config, rung) for box in boxes]
    outcomes: List[Union[BoxPrediction, Exception, None]] = [None] * len(runs)
    pending: List[Tuple[int, List[np.ndarray]]] = []
    for pos, run in enumerate(runs):
        try:
            demands = run.training_demands()
            if store.persistent:
                run.forecast_key = stages.forecast_key(demands, config)
                # Disk-only: the in-memory tier already caches the
                # expensive half (the spatial model).
                outcomes[pos] = store.get(run.forecast_key, memory=False)
                if outcomes[pos] is not None:
                    obs.inc("stages.forecast.hits")
                    continue
            run.predictor = SpatialTemporalPredictor(config.prediction)
            with obs.span("atm.fit"):
                pending.append((pos, run.predictor.begin_fit(demands)))
        except Exception as exc:
            outcomes[pos] = exc

    if pending:
        try:
            with obs.span("predict.temporal_fit"):
                fitted = fit_temporal_fleet_batch(
                    config.prediction.temporal_model,
                    [histories for _, histories in pending],
                    period=config.prediction.period,
                )
        except Exception as exc:
            fitted = [exc] * len(pending)
        for (pos, _), models in zip(pending, fitted):
            if isinstance(models, Exception):
                outcomes[pos] = models
                continue
            run = runs[pos]
            try:
                run.predictor.finish_fit(models)
                prediction = run.predictor.predict(config.horizon_windows)
                if run.forecast_key is not None:
                    store.put(run.forecast_key, prediction, memory=False)
                outcomes[pos] = prediction
            except Exception as exc:
                outcomes[pos] = exc

    span = "pipeline.box_run" if rung == RUNG_PRIMARY else "pipeline.box_run_fallback"
    for run, outcome in zip(runs, outcomes):
        if not isinstance(outcome, Exception):
            try:
                with obs.span(span):
                    outcome = stages.evaluate_forecast_stages(run, outcome)
            except Exception as exc:
                outcome = exc
        yield outcome


def _run_box_atm_chunk(
    items, config: AtmConfig, resume: bool = False
) -> List[BoxOutcome]:
    """Whole-chunk unit of work: every box of a chunk down the degradation ladder.

    Each box is mapped (``items`` may be shard descriptors) and probed for
    its stored ``(result, events)`` pair (namespace ``pipeline``); errors
    there propagate.  The rest run at the primary rung through
    :func:`_run_rung`.  A box whose primary rung raises gets a
    ``seasonal_mean`` event carrying ``repr`` of the exception, and all
    such boxes of the chunk run again together at the seasonal rung (the
    seasonal-mean model on the sanitized slice); a second failure reports
    the box as ``failed`` with a ``None`` result.  Every pair, degraded or
    not, is saved under the box's ``box_result`` key as soon as it is
    final.
    """
    out: List[Optional[BoxOutcome]] = [None] * len(items)
    todo: List[Tuple[int, BoxTrace, Callable[[BoxOutcome], None]]] = []
    for pos, item in enumerate(items):
        box = resolve_box(item)
        cached, save = resume_probe(
            "pipeline", lambda: stages.box_result_key(box, config), resume
        )
        if cached is None:
            todo.append((pos, box, save))
        else:
            result, events = cached
            out[pos] = (result, list(events))

    def finish(pos: int, save, pair: BoxOutcome) -> None:
        save(pair)
        out[pos] = pair

    retry = []
    primary = _run_rung([box for _, box, _ in todo], config, RUNG_PRIMARY)
    for (pos, box, save), outcome in zip(todo, primary):
        if isinstance(outcome, Exception):
            obs.inc("pipeline.fallback.seasonal")
            obs.inc("fused.fallback_boxes")
            event = DegradationEvent(box.box_id, "fit", RUNG_SEASONAL, repr(outcome))
            retry.append((pos, box, save, event))
        else:
            finish(pos, save, (outcome, []))

    fallback = _run_rung(
        [box for _, box, _, _ in retry], _seasonal_fallback_config(config), RUNG_SEASONAL
    )
    for (pos, box, save, event), outcome in zip(retry, fallback):
        if isinstance(outcome, Exception):
            obs.inc("pipeline.boxes_failed")
            failed = DegradationEvent(box.box_id, "fit", RUNG_FAILED, repr(outcome))
            finish(pos, save, (None, [event, failed]))
        else:
            finish(pos, save, (outcome, [event]))
    return out  # type: ignore[return-value]


def run_fleet_atm(
    fleet: Union[FleetTrace, "ShardedFleet"],
    config: Optional[AtmConfig] = None,
    keep_box_results: bool = False,
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    resume: bool = False,
) -> FleetAtmResult:
    """Run ATM end-to-end on every box of a fleet.

    Boxes too short for the configured training + horizon windows are
    skipped (the paper likewise restricts its ATM study to the subset of
    gap-free boxes).  A failing box climbs the policy ladder and is
    reported in ``result.report``; it never aborts the fleet.  When no box
    is long enough, the result is empty and ``result.report`` holds one
    fleet-level ``failed`` event.

    ``fleet`` may be an in-RAM :class:`FleetTrace` or a
    :class:`repro.store.shards.ShardedFleet` (see
    :func:`repro.core.executor.fleet_items`).

    Parameters
    ----------
    keep_box_results:
        Retain per-box predictions/allocations (memory-heavy for large
        fleets); aggregates are always kept.
    jobs:
        Worker processes for the per-box fan-out.  ``None`` reads the
        ``REPRO_JOBS`` environment variable (default 1 = serial);
        ``jobs <= 0`` uses all cores.  Results are aggregated in fleet box
        order, identically for any worker count.
    chunksize:
        Boxes per chunk; defaults to ~4 chunks per worker, capped at
        :data:`FUSED_CHUNK_BOXES` (the whole cap when serial).
    resume:
        Serve boxes whose result artifact is already materialized in the
        persistent store (``REPRO_STORE`` / ``--store``) instead of
        recomputing them; aggregates are bit-identical to a fresh run.
        No-op without a persistent store.
    """
    cfg = config or AtmConfig()
    out = FleetAtmResult(config=cfg)
    needed = cfg.training_windows + cfg.horizon_windows
    items = fleet_items(fleet, needed)
    if chunksize is None:
        # Cap chunks: the gather phase holds a whole chunk's training
        # slices at once, so the RSS bound must come from the chunk size,
        # never the fleet size.  Serially there is no straggler risk to
        # balance, so take the whole cap — bigger chunks mean fuller
        # fused mega-batches.
        workers = resolve_jobs(jobs)
        chunksize = (
            FUSED_CHUNK_BOXES
            if workers == 1
            else min(default_chunksize(len(items), workers), FUSED_CHUNK_BOXES)
        )

    def fold(pair: BoxOutcome) -> None:
        result, events = pair
        out.report.extend(events)
        if result is None:
            return
        out.accuracies.append(result.accuracy)
        for reduction in result.reductions.values():
            out.reduction.add(reduction)
        if keep_box_results:
            out.box_results.append(result)

    obs.inc("pipeline.boxes", len(items))
    run_fleet(
        None, items, cfg, resume,
        fold=fold, span="pipeline.fleet", fleet=fleet, min_windows=needed,
        report=out.report, jobs=jobs, chunksize=chunksize,
        chunk_fn=_run_box_atm_chunk,
    )
    return out
