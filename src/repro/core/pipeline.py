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
wall-clock.  Each box is a :class:`repro.core.stages._BoxRun` at the
window after its training slice: the online controller runs the same
record at later windows, through the same seasonal rung and tail.

A failing box degrades instead of aborting the fleet: it climbs the
policy ladder (configured model → the search-free seasonal rung →
reported failure) and :class:`FleetAtmResult.report` carries the
structured degradation events; healthy boxes are unaffected, bit for
bit.  The terminal rung is ``failed``: an evaluation excludes a box it
has no forecast for.  A box that fails outside the ladder (a shard that
cannot be mapped, an injected ``box_error``) is reported ``failed`` by
the engine's per-box contract.  There is no fail-fast switch and no
retry, as the fault harness's faults are deterministic per box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core import stages
from repro.core.config import AtmConfig
from repro.core.degrade import RUNG_FAILED, RUNG_SEASONAL, DegradationEvent, ErrorReport
from repro.core.executor import default_chunksize, fleet_items, resolve_jobs, run_fleet
from repro.core.results import BoxAtmResult, PredictionAccuracy, ape_cdf
from repro.core.stages import RunKeys, _BoxRun
from repro.prediction.combined import BoxPrediction, SpatialTemporalPredictor
from repro.prediction.registry import fit_temporal_fleet_batch
from repro.resizing.evaluate import FleetReduction, ResizingAlgorithm
from repro.store import ArtifactKey, default_store
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


#: One box's outcome: its result (``None`` = failed) and degradation events.
BoxOutcome = Tuple[Optional[BoxAtmResult], List[DegradationEvent]]


def _run_primary(
    runs: Sequence[_BoxRun], config: AtmConfig, keys: Optional[RunKeys]
) -> Iterator[Union[BoxAtmResult, Exception]]:
    """Run a chunk's boxes at the primary rung; yield each box's outcome in order.

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
    result.  ``keys`` are the run's key halves (built here when ``None``
    and the store is persistent).
    """
    store = default_store()
    if keys is None and store.persistent:
        keys = RunKeys.of(config)
    outcomes: List[Union[BoxPrediction, Exception, None]] = [None] * len(runs)
    pending: List[
        Tuple[int, SpatialTemporalPredictor, Optional[ArtifactKey], List[np.ndarray]]
    ] = []
    for pos, run in enumerate(runs):
        try:
            demands = run.training_demands()
            key = spatial_key = None
            if store.persistent:
                key, spatial_key = keys.training_keys(demands)
                outcomes[pos] = store.get(key)
                if outcomes[pos] is not None:
                    obs.inc("stages.forecast.hits")
                    continue
            predictor = SpatialTemporalPredictor(config.prediction)
            with obs.span("atm.fit"):
                pending.append(
                    (pos, predictor, key, predictor.begin_fit(demands, spatial_key))
                )
        except Exception as exc:
            outcomes[pos] = exc

    if pending:
        try:
            with obs.span("predict.temporal_fit"):
                fitted = fit_temporal_fleet_batch(
                    config.prediction.temporal_model,
                    [histories for *_, histories in pending],
                    period=config.prediction.period,
                )
        except Exception as exc:
            fitted = [exc] * len(pending)
        for (pos, predictor, key, _), models in zip(pending, fitted):
            if isinstance(models, Exception):
                outcomes[pos] = models
                continue
            try:
                predictor.finish_fit(models)
                prediction = predictor.predict(config.horizon_windows)
                if key is not None:
                    store.put(key, prediction)
                outcomes[pos] = prediction
            except Exception as exc:
                outcomes[pos] = exc

    for run, outcome in zip(runs, outcomes):
        if not isinstance(outcome, Exception):
            try:
                with obs.span("pipeline.box_run"):
                    outcome = stages.evaluate_forecast_stages(run, outcome)
            except Exception as exc:
                outcome = exc
        yield outcome


def _run_box_atm_chunk(
    boxes: Iterable[BoxTrace], config: AtmConfig, keys: Optional[RunKeys] = None
) -> Iterator[BoxOutcome]:
    """ATM's chunk function: every box of a chunk down the degradation ladder.

    The boxes run at the primary rung through :func:`_run_primary`.  A box
    whose primary rung raises gets a ``seasonal_mean`` event carrying
    ``repr`` of the exception and runs the search-free seasonal rung
    (:meth:`~repro.core.stages._BoxRun.seasonal_forecast`) through the
    same tail; a second failure reports the box as ``failed`` with a
    ``None`` result.  Mapping, resume and saving each pair belong to
    :func:`~repro.core.executor.run_fleet`.  ``keys`` are the run's key
    halves (:class:`~repro.core.stages.RunKeys`).
    """
    runs = [_BoxRun(box, config, config.training_windows) for box in boxes]
    for run, outcome in zip(runs, _run_primary(runs, config, keys)):
        if not isinstance(outcome, Exception):
            yield outcome, []
            continue
        obs.inc("pipeline.fallback.seasonal")
        obs.inc("fused.fallback_boxes")
        box_id = run.box.box_id
        event = DegradationEvent(box_id, "fit", RUNG_SEASONAL, repr(outcome))
        try:
            pair: BoxOutcome = (
                stages.evaluate_forecast_stages(run, run.seasonal_forecast()), [event]
            )
        except Exception as exc:
            obs.inc("pipeline.boxes_failed")
            pair = (None, [event, DegradationEvent(box_id, "fit", RUNG_FAILED, repr(exc))])
        yield pair


def _box_result_key(box: BoxTrace, config: AtmConfig, keys: RunKeys) -> ArtifactKey:
    """The fleet engine's resume probe: ``box``'s ``box_result`` key."""
    return keys.box_result_key(box)


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

    # The run's key halves, fingerprinted once here; only a persistent
    # store reads keys at all.
    keys = RunKeys.of(cfg) if default_store().persistent else None
    run_fleet(
        "pipeline", _run_box_atm_chunk, items, cfg, keys,
        key=_box_result_key, fold=fold, report=out.report, fleet=fleet,
        min_windows=needed, resume=resume, jobs=jobs, chunksize=chunksize,
    )
    return out
