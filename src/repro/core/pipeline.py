"""Fleet-scale ATM evaluation (the Section V production-trace study).

Runs the per-box ATM controller over every box of a fleet and aggregates:

* the Fig. 9 prediction-accuracy CDFs (all windows and peak-only),
* the Fig. 10 ticket-reduction comparison driven by *predicted* demands,
* signature-set statistics (how much of the fleet needed temporal models).

Per-box runs are independent (the paper deploys ATM per box), so the fleet
loop is the shared engine :func:`repro.core.executor.run_fleet`: boxes fan
out across processes when ``jobs > 1`` and their results are folded into
the aggregates in box order as chunks land, so peak RSS stays flat as the
fleet grows.  At paper scale the fleet can be a
:class:`repro.store.shards.ShardedFleet`, whose workers receive shard
descriptors and memory-map their boxes locally.

A failing box degrades instead of aborting the fleet: the per-box unit of
work climbs the policy ladder (configured model → seasonal-mean fallback →
reported failure) and :class:`FleetAtmResult.report` carries the structured
degradation events; healthy boxes are unaffected, bit for bit.  That
is the only failure mode: there is no fail-fast switch and no retry, as
the fault harness's faults are deterministic per box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from repro import obs
from repro.core.atm import AtmController, BoxAtmResult
from repro.core.config import AtmConfig
from repro.core.degrade import (
    RUNG_FAILED,
    RUNG_SEASONAL,
    DegradationEvent,
    ErrorReport,
)
from repro.core.executor import (
    default_chunksize, fleet_items, resolve_jobs, resume_probe, run_fleet,
)
from repro.core.results import PredictionAccuracy, ape_cdf
from repro.prediction.registry import has_fleet_fitter
from repro.resizing.evaluate import FleetReduction, ResizingAlgorithm
from repro.timeseries.ecdf import Ecdf
from repro.timeseries.metrics import finite_mean
from repro.trace.model import FleetTrace, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.shards import ShardedFleet

__all__ = ["FUSED_CHUNK_BOXES", "FleetAtmResult", "run_fleet_atm"]

#: Upper bound on boxes gathered into one fused training chunk.  The
#: fused plane holds every gathered box's training slice and controller
#: live for the duration of the chunk, so the cap keeps the per-worker
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


def _run_box_atm(box, config: AtmConfig, resume: bool = False) -> BoxOutcome:
    """Per-box unit of work; module-level so pool workers can unpickle it.

    Climbs the degradation ladder: the configured model first; on failure
    a seasonal-mean fallback run (with sanitized training data); on a
    second failure the box is reported as failed (``None`` result) rather
    than aborting the fleet.

    ``box`` may be a shard descriptor, mapped here in the worker; the
    ``(result, events)`` pair is the box's resumable artifact
    (:func:`~repro.core.executor.resume_probe`, namespace ``pipeline``).
    """
    from repro.core import stages
    from repro.store.shards import resolve_box

    box = resolve_box(box)
    cached, save = resume_probe(
        "pipeline", lambda: stages.box_result_key(box, config), resume
    )
    if cached is not None:
        result, events = cached
        return result, list(events)
    pair = _run_box_ladder(box, config)
    save(pair)
    return pair


def _run_box_ladder(box, config: AtmConfig) -> BoxOutcome:
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
        with obs.span("pipeline.box_run_fallback"):
            result = AtmController(
                box, _seasonal_fallback_config(config), rung=RUNG_SEASONAL
            ).run()
        return result, events
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


def _run_box_atm_fused_chunk(
    items, config: AtmConfig, resume: bool = False
) -> List[BoxOutcome]:
    """Whole-chunk unit of work: fuse every box's temporal fits into one pass.

    Produces exactly ``_run_box_atm(item, ...)`` for each item — same
    results, same events, same store artifacts under the same keys — but
    reorders the work: first a *gather* phase runs each box's resume
    probe, forecast probe and signature search, then all gathered boxes'
    signature series train together in one cross-box mega-batched pass
    (:func:`repro.prediction.registry.fit_temporal_fleet_batch`), and a
    *scatter* phase completes each box's forecast, sizing and evaluation.
    The fused kernel is bit-identical to the per-box batched fit, so the
    reordering is observable only as wall-clock.

    Failure isolation stays per-box: a box that raises anywhere in the
    gather or scatter phases — or whose histories fail fused validation —
    is re-run down the ordinary :func:`_run_box_atm` ladder (counted as
    ``fused.fallback_boxes``); injected faults are deterministic per box,
    so the replay reproduces the per-box path's events exactly.
    """
    from repro.core import stages
    from repro.prediction.combined import SpatialTemporalPredictor
    from repro.prediction.registry import fit_temporal_fleet_batch
    from repro.store.shards import resolve_box

    out: List[Optional[BoxOutcome]] = [None] * len(items)

    def fallback(pos: int) -> None:
        obs.inc("fused.fallback_boxes")
        out[pos] = _run_box_atm(items[pos], config, resume)

    # Gather: resume probes, forecast probes, signature searches.  Boxes
    # with a stored forecast skip fitting entirely (``finish``); the rest
    # contribute their signature histories to the fused pass (``pending``).
    # ``save`` persists a box's finished (result, events) pair.
    pending: List[Tuple[int, AtmController, Callable, object, List]] = []
    finish: List[Tuple[int, AtmController, Callable, object]] = []
    for pos in range(len(items)):
        try:
            box = resolve_box(items[pos])
            cached, save = resume_probe(
                "pipeline", lambda: stages.box_result_key(box, config), resume
            )
            if cached is not None:
                result, events = cached
                out[pos] = (result, list(events))
                continue
            controller = AtmController(box, config)
            demands, forecast_key, prediction = stages.probe_forecast(controller)
            if prediction is not None:
                finish.append((pos, controller, save, prediction))
                continue
            predictor = SpatialTemporalPredictor(config.prediction)
            with obs.span("atm.fit"):
                histories = predictor.begin_fit(demands)
            controller._predictor = predictor
            pending.append((pos, controller, save, forecast_key, histories))
        except Exception:
            fallback(pos)

    # Fuse: one cross-box mega-batched fit over every pending box's
    # signature series.  A None entry = that box's group failed validation
    # (re-run it per box, where its degradation ladder applies); a raised
    # exception fails every pending box back to the per-box path.
    groups: List[Optional[List]] = []
    if pending:
        try:
            with obs.span("predict.temporal_fit"):
                groups = fit_temporal_fleet_batch(
                    config.prediction.temporal_model,
                    [histories for (_, _, _, _, histories) in pending],
                    period=config.prediction.period,
                )
        except Exception:
            groups = [None] * len(pending)

    # Scatter: complete each fused box's forecast, then run its sizing
    # and evaluation stages exactly as the per-box orchestrator would.
    for (pos, controller, save, forecast_key, _), models in zip(
        pending, groups
    ):
        try:
            if models is None:
                fallback(pos)
                continue
            controller._predictor.finish_fit(models)
            prediction = controller.predict(config.horizon_windows)
            stages.store_forecast(forecast_key, prediction)
            finish.append((pos, controller, save, prediction))
        except Exception:
            fallback(pos)

    # Evaluate: sizing + accuracy for every box that holds a forecast.
    for pos, controller, save, prediction in finish:
        try:
            with obs.span("pipeline.box_run"):
                result = stages.evaluate_forecast_stages(controller, prediction)
            pair: BoxOutcome = (result, [])
            save(pair)
            out[pos] = pair
        except Exception:
            fallback(pos)
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
        Boxes per scheduled pool task (parallel path only); defaults to
        ~4 chunks per worker.
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
    chunk_fn = None
    if has_fleet_fitter(cfg.prediction.temporal_model):
        chunk_fn = _run_box_atm_fused_chunk
        if chunksize is None:
            # Cap fused chunks: the gather phase holds a whole chunk's
            # training slices at once, so the RSS bound must come from
            # the chunk size, never the fleet size.  Serially there is no
            # straggler risk to balance, so take the whole cap — bigger
            # chunks mean fuller mega-batches.
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
        _run_box_atm, items, cfg, resume,
        fold=fold, span="pipeline.fleet", fleet=fleet, min_windows=needed,
        report=out.report, jobs=jobs, chunksize=chunksize, chunk_fn=chunk_fn,
    )
    return out
