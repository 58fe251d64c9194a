"""Fleet-scale ATM evaluation (the Section V production-trace study).

Runs the per-box ATM controller over every box of a fleet and aggregates:

* the Fig. 9 prediction-accuracy CDFs (all windows and peak-only),
* the Fig. 10 ticket-reduction comparison driven by *predicted* demands,
* signature-set statistics (how much of the fleet needed temporal models).

Per-box runs are independent (the paper deploys ATM per box), so the fleet
loop fans out across processes through :class:`repro.core.executor.FleetExecutor`
when ``jobs > 1``; ``jobs=1`` (the default) is the bit-identical serial path.

A failing box degrades instead of aborting the fleet: the per-box unit of
work climbs the policy ladder (configured model → seasonal-mean fallback →
reported failure) and :class:`FleetAtmResult.report` carries the structured
degradation events; healthy boxes are unaffected, bit for bit.

At paper scale the fleet argument can be a
:class:`repro.store.shards.ShardedFleet`: eligibility is decided from the
manifest alone, workers receive few-hundred-byte shard *descriptors*
instead of pickled traces and memory-map their boxes locally, and results
are folded into the aggregates as chunks land
(:meth:`FleetExecutor.imap`) instead of accumulating a full result list
— peak RSS stays flat as the fleet grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro import obs
from repro.core.atm import AtmController, BoxAtmResult
from repro.core.config import AtmConfig
from repro.core.degrade import (
    RUNG_FAILED,
    RUNG_SEASONAL,
    DegradationEvent,
    ErrorReport,
)
from repro.core.executor import FleetExecutor, default_chunksize
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


def _run_box_atm(
    box, config: AtmConfig, degrade: bool, resume: bool = False
) -> Tuple[Optional[BoxAtmResult], List[DegradationEvent]]:
    """Per-box unit of work; module-level so pool workers can unpickle it.

    Climbs the degradation ladder: the configured model first; on failure
    a seasonal-mean fallback run (with sanitized training data); on a
    second failure the box is reported as failed (``None`` result) rather
    than aborting the fleet.  ``degrade=False`` restores fail-fast.

    With a persistent artifact store the completed ``(result, events)``
    pair is materialized per box, so an interrupted fleet run leaves each
    finished box's outcome on disk; ``resume=True`` serves those boxes
    from the store (counted as ``pipeline.resume.hits``) and computes only
    the rest — bit-identical to an uninterrupted run.

    ``box`` may be a :class:`repro.store.shards.BoxShardRef`, in which
    case the shard is memory-mapped here in the worker — the parent never
    pickles trace data.
    """
    from repro.core import stages
    from repro.store import default_store
    from repro.store.shards import resolve_box

    box = resolve_box(box)
    store = default_store()
    key = stages.box_result_key(box, config, degrade) if store.persistent else None
    if resume and key is not None:
        cached = store.get(key, memory=False)
        if cached is not None:
            obs.inc("pipeline.resume.hits")
            result, events = cached
            return result, list(events)
    result, events = _run_box_ladder(box, config, degrade)
    if key is not None:
        store.put(key, (result, events), memory=False)
    return result, events


def _run_box_ladder(
    box, config: AtmConfig, degrade: bool
) -> Tuple[Optional[BoxAtmResult], List[DegradationEvent]]:
    """The degradation ladder itself (no store interaction)."""
    events: List[DegradationEvent] = []
    try:
        with obs.span("pipeline.box_run"):
            return AtmController(box, config).run(), events
    except Exception as exc:
        if not degrade:
            raise
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
    items, config: AtmConfig, degrade: bool, resume: bool = False
) -> List[Tuple[Optional[BoxAtmResult], List[DegradationEvent]]]:
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

    Failure isolation stays per-box when ``degrade`` is on: a box that
    raises anywhere in the gather or scatter phases — or whose histories
    fail fused validation — is re-run down the ordinary
    :func:`_run_box_atm` ladder (counted as ``fused.fallback_boxes``);
    injected faults are deterministic per (box, attempt), so the replay
    reproduces the per-box path's events exactly.  ``degrade=False``
    keeps fail-fast semantics: the first exception propagates and fails
    the chunk, as it would fail the fleet.
    """
    from repro.core import stages
    from repro.prediction.combined import SpatialTemporalPredictor
    from repro.prediction.registry import fit_temporal_fleet_batch
    from repro.store import default_store
    from repro.store.shards import resolve_box

    out: List[Optional[Tuple[Optional[BoxAtmResult], List[DegradationEvent]]]] = [
        None
    ] * len(items)
    store = default_store()

    def fallback(pos: int) -> None:
        obs.inc("fused.fallback_boxes")
        out[pos] = _run_box_atm(items[pos], config, degrade, resume)

    # Gather: resume probes, forecast probes, signature searches.  Boxes
    # with a stored forecast skip fitting entirely (``finish``); the rest
    # contribute their signature histories to the fused pass (``pending``).
    pending: List[Tuple[int, AtmController, object, object, List]] = []
    finish: List[Tuple[int, AtmController, object, object]] = []
    for pos in range(len(items)):
        try:
            box = resolve_box(items[pos])
            result_key = (
                stages.box_result_key(box, config, degrade)
                if store.persistent
                else None
            )
            if resume and result_key is not None:
                cached = store.get(result_key, memory=False)
                if cached is not None:
                    obs.inc("pipeline.resume.hits")
                    result, events = cached
                    out[pos] = (result, list(events))
                    continue
            controller = AtmController(box, config)
            demands, forecast_key, prediction = stages.probe_forecast(controller)
            if prediction is not None:
                finish.append((pos, controller, result_key, prediction))
                continue
            predictor = SpatialTemporalPredictor(config.prediction)
            with obs.span("atm.fit"):
                histories = predictor.begin_fit(demands)
            controller._predictor = predictor
            pending.append((pos, controller, result_key, forecast_key, histories))
        except Exception:
            if not degrade:
                raise
            fallback(pos)

    # Fuse: one cross-box mega-batched fit over every pending box's
    # signature series.  A None entry = that box's group failed validation
    # (re-run it per box, where its degradation ladder applies); a raised
    # exception fails every pending box back to the per-box path.
    groups: List[Optional[List]] = []
    if pending:
        try:
            with obs.span("predict.temporal_fit"):
                fitted = fit_temporal_fleet_batch(
                    config.prediction.temporal_model,
                    [histories for (_, _, _, _, histories) in pending],
                    period=config.prediction.period,
                )
            groups = [None] * len(pending) if fitted is None else fitted
        except Exception:
            if not degrade:
                raise
            groups = [None] * len(pending)

    # Scatter: complete each fused box's forecast, then run its sizing
    # and evaluation stages exactly as the per-box orchestrator would.
    for (pos, controller, result_key, forecast_key, _), models in zip(
        pending, groups
    ):
        try:
            if models is None:
                fallback(pos)
                continue
            controller._predictor.finish_fit(models)
            prediction = controller.predict(config.horizon_windows)
            stages.store_forecast(forecast_key, prediction)
            finish.append((pos, controller, result_key, prediction))
        except Exception:
            if not degrade:
                raise
            fallback(pos)

    # Evaluate: sizing + accuracy for every box that holds a forecast.
    for pos, controller, result_key, prediction in finish:
        try:
            with obs.span("pipeline.box_run"):
                result = stages.evaluate_forecast_stages(controller, prediction)
            pair: Tuple[Optional[BoxAtmResult], List[DegradationEvent]] = (result, [])
            if result_key is not None:
                store.put(result_key, pair, memory=False)
            out[pos] = pair
        except Exception:
            if not degrade:
                raise
            fallback(pos)
    return out  # type: ignore[return-value]


def run_fleet_atm(
    fleet: Union[FleetTrace, "ShardedFleet"],
    config: Optional[AtmConfig] = None,
    keep_box_results: bool = False,
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    degrade: bool = True,
    resume: bool = False,
    retries: int = 0,
) -> FleetAtmResult:
    """Run ATM end-to-end on every box of a fleet.

    Boxes too short for the configured training + horizon windows are
    skipped (the paper likewise restricts its ATM study to the subset of
    gap-free boxes).

    ``fleet`` may be an in-RAM :class:`FleetTrace` or a
    :class:`repro.store.shards.ShardedFleet`; for the latter, eligibility
    is read from the manifest and workers receive shard descriptors they
    memory-map locally — no trace data crosses the process boundary.

    Parameters
    ----------
    keep_box_results:
        Retain per-box predictions/allocations (memory-heavy for large
        fleets); aggregates are always kept.
    jobs:
        Worker processes for the per-box fan-out.  ``None`` reads the
        ``REPRO_JOBS`` environment variable (default 1 = serial, the
        bit-identical legacy path); ``jobs <= 0`` uses all cores.  Results
        are aggregated in fleet box order for any worker count.
    chunksize:
        Boxes per scheduled pool task (parallel path only); defaults to
        ~4 chunks per worker.
    degrade:
        Climb the per-box policy ladder on failure (default), collecting
        partial results plus ``result.report``; ``False`` restores the
        fail-fast behaviour where the first box exception propagates.
    resume:
        Serve boxes whose result artifact is already materialized in the
        persistent store (``REPRO_STORE`` / ``--store``) instead of
        recomputing them; aggregates are bit-identical to a fresh run.
        No-op without a persistent store.
    retries:
        Per-box retry budget forwarded to the executor (transient
        ``once`` faults clear on the retry attempt).
    """
    cfg = config or AtmConfig()
    out = FleetAtmResult(config=cfg)
    needed = cfg.training_windows + cfg.horizon_windows
    if hasattr(fleet, "box_refs"):
        # Sharded fleet: eligibility comes from the manifest; no shard is
        # opened in the parent, and workers receive the refs themselves.
        eligible = [ref for ref in fleet.box_refs() if ref.n_windows >= needed]
    else:
        eligible = [box for box in fleet if box.n_windows >= needed]
    if not eligible:
        raise ValueError(
            f"no box in fleet {fleet.name!r} has the {needed} windows required"
        )
    executor = FleetExecutor(jobs=jobs, chunksize=chunksize, retries=retries)
    chunk_fn = None
    if has_fleet_fitter(cfg.prediction.temporal_model):
        chunk_fn = _run_box_atm_fused_chunk
        if chunksize is None:
            # Cap fused chunks: the gather phase holds a whole chunk's
            # training slices at once, so the RSS bound must come from
            # the chunk size, never the fleet size.  Serially there is no
            # straggler risk to balance, so take the whole cap — bigger
            # chunks mean fuller mega-batches.
            executor.chunksize = (
                FUSED_CHUNK_BOXES
                if executor.jobs == 1
                else min(
                    default_chunksize(len(eligible), executor.jobs),
                    FUSED_CHUNK_BOXES,
                )
            )
    obs.inc("pipeline.boxes", len(eligible))
    with obs.span("pipeline.fleet"):
        # Results are folded as chunks land, so at most O(workers) heavy
        # per-box results are resident at once.
        for result, events in executor.imap(
            _run_box_atm, eligible, cfg, degrade, resume, chunk_fn=chunk_fn
        ):
            out.report.extend(events)
            if result is None:
                continue
            out.accuracies.append(result.accuracy)
            for reduction in result.reductions.values():
                out.reduction.add(reduction)
            if keep_box_results:
                out.box_results.append(result)
    return out
