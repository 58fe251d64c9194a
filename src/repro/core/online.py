"""Online dynamic workload management — the paper's stated future work.

The conclusion of the paper: "In our future work we intend to use ATM's
prediction abilities to drive online dynamic workload management."  This
module implements that extension: a rolling controller that, day after day,

1. re-fits the spatial-temporal predictor on a sliding training window,
2. predicts the next resizing window,
3. actuates new capacity limits (with the ε safety margin and slack
   redistribution), and
4. observes the day's *actual* demands, scoring both prediction accuracy
   and realized tickets against the static status quo.

A step is the offline pipeline's box run at a later window: step ``k``
is a :class:`repro.core.stages._BoxRun` starting ``k`` horizons after the
training slice, so training slice, evaluation slice and sizing floors
are defined once for both drivers, and steps 2–4 are the offline tail,
:func:`repro.core.stages.evaluate_forecast_stages`, solving ATM only.

Because allocations change daily while demands do not depend on them (the
post-hoc trace assumption the paper itself makes), the rolling run yields a
day-by-day account of how ATM would have managed the box across the whole
trace — including its behavior under workload drift.

A production controller must keep running when a model does not: every
step climbs a graceful-degradation ladder — the configured (neural)
spatial-temporal predictor first, then the search-free seasonal rung the
offline pipeline also falls back to
(:meth:`~repro.core.stages._BoxRun.seasonal_forecast`), and finally
*hold the current allocation* when even that dies.  The terminal rung is
the controller's own: an offline evaluation can exclude a box it has no
forecast for, but a controller must set an allocation every step.  Each
rung transition is recorded as a
:class:`~repro.core.degrade.DegradationEvent` on the step and the run, so
a degraded fleet is reported, never silently wrong.  The
:mod:`repro.core.faults` harness injects fit errors, NaN-poisoned training
slices and per-box errors to keep the ladder honest in CI.

Warm starts come for free from the artifact store: the controller's
step-0 training slice is exactly the offline pipeline's training matrix,
and the signature search consults :mod:`repro.store` by content address —
so with ``REPRO_STORE`` pointing at a store populated by an offline run
(or a previous online run), the expensive spatial search of the first
step is served from disk instead of recomputed.

Steps can be *incremental*, restarting nothing they can reuse.  At the
default ``refit_every_steps=1`` they are not: every step re-runs the
signature search and fits cold.  A larger cadence cap enables both
mechanisms below:

* **Warm-started refits** — the controller chains each box's temporal
  fits (:mod:`repro.prediction.temporal.warm`): each refit resumes from
  the previous step's ``(K, P)`` parameter state instead of re-training
  from scratch, with a validation-loss guard and per-step persistence
  for interrupted-run resume.  A re-search resets the chain, so its
  step's fit is cold.
* **Drift-gated re-search** — between cadence refits the controller
  scores workload drift as the rise of the spatial model's relative
  reconstruction error on the advanced window over its fit-time
  baseline; the expensive signature search re-runs early only when the
  score exceeds ``drift_threshold``.  ``refit_every_steps`` is thereby
  demoted to a fallback cap: set it large and let drift decide.
  ``drift_threshold=inf`` gives the pure cadence.  With the default
  ``refit_every_steps=1`` the cap is always due and the drift score is
  never consulted.

:func:`run_online_fleet` fans boxes out through the same engine as the
offline pipeline (:func:`~repro.core.executor.run_fleet`), in-RAM or
sharded, with one in-order fold for every worker count.  Inside a chunk
the boxes run in *lock-step*: every controller takes step ``k`` before
any takes step ``k + 1``, and each step gathers the boxes' searches or
drift-checked re-anchors, fits all their temporal models in the offline
chunk's fit phase (:func:`repro.core.stages.fit_pending`, chained from
each box's warm state), then scatters the fitted predictors for each
box's forecast, sizing and ladder — the gather → fit → scatter shape of
the offline chunk (:func:`repro.core.pipeline._run_primary`).  Only the
fit phase is shared: the gather (drift gate, warm chain), the scatter
and the ladder (ending at ``hold``) are the controller's own.  Early
stopping leaves an online refit only ~5 live models wide, so a fused
kernel step spreads its fixed cost over a chunk's boxes instead of one
box's.  Every fit is bit-identical to the box's own, so the reordering
shows only in wall-clock: :meth:`OnlineAtmController.run` is the
one-box case of the same loop, and a chunk's runs equal their one-box
runs bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.config import AtmConfig
from repro.core.degrade import (
    RUNG_HOLD,
    RUNG_PRIMARY,
    RUNG_SEASONAL,
    DegradationEvent,
    ErrorReport,
)
from repro.core.executor import default_chunksize, fleet_items, resolve_jobs, run_fleet
from repro.core.results import BoxAtmResult
from repro.core.stages import _BoxRun, evaluate_forecast_stages, fit_pending
from repro.prediction.combined import SpatialTemporalPredictor
from repro.resizing.evaluate import ResizingAlgorithm
from repro.resizing.problem import ResizingProblem, tickets_for_allocation
from repro.timeseries.metrics import finite_mean, mean_absolute_percentage_error
from repro.trace.model import BoxTrace, FleetTrace, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.shards import ShardedFleet

__all__ = [
    "DRIFT_THRESHOLD_DEFAULT",
    "OnlineStep",
    "OnlineRunResult",
    "OnlineFleetResult",
    "OnlineAtmController",
    "run_online_fleet",
]

#: Default drift-score threshold above which the signature search re-runs
#: before its cadence cap.  The score is a *rise* in relative Frobenius
#: reconstruction error over the fit-time baseline, so 0.15 means "the
#: signature set explains 15 points less of the window's energy than it
#: did when chosen" — far outside the step-to-step jitter of a stable
#: workload (see ``tests/core/test_online_incremental.py``).
DRIFT_THRESHOLD_DEFAULT = 0.15

#: Upper bound on boxes per online chunk.  Lock-step keeps every box of a
#: chunk live for the whole run (its demand matrix, predictor and warm
#: state, and a shard store's mapped rows), about 1.1 MB per box at 26
#: series × 960 windows, so peak RSS grows with the chunk's width while the fused fit's
#: saving levels off after a few boxes.  On a 64-box sharded
#: regime-shift fleet (jobs=1, 2-core x86 host) widths 1, 2, 4, 8 and 16
#: measured 8.9, 8.15, 8.05, 7.85 and 7.8 CPU-s against +0, +1.9, +4.1,
#: +8.6 and +17.4 MB of peak RSS over width 1; see EXPERIMENTS.md.
ONLINE_CHUNK_BOXES = 4


@dataclass(frozen=True)
class OnlineStep:
    """One resizing window of the rolling controller, per resource."""

    day_index: int
    resource: Resource
    ape: float
    tickets_static: int
    tickets_atm: int
    allocation: np.ndarray
    #: Mean predicted demand of the step (NaN on the hold rung) — lets a
    #: reader verify that non-refit steps track the advancing window.
    predicted_mean: float = float("nan")
    #: Degradation rung that served the step (see repro.core.degrade).
    rung: str = RUNG_PRIMARY
    #: repr() of the failure that forced a lower rung, if any.
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        # Defensive copy: the caller's allocation array stays mutable in
        # its hands; a frozen step must not change after the fact.
        object.__setattr__(
            self, "allocation", np.array(self.allocation, dtype=float)
        )

    @property
    def tickets_avoided(self) -> int:
        return self.tickets_static - self.tickets_atm


@dataclass
class OnlineRunResult:
    """Rolling-run outcome for one box."""

    box_id: str
    steps: List[OnlineStep] = field(default_factory=list)
    degradations: List[DegradationEvent] = field(default_factory=list)

    def total_tickets(self, static: bool = False) -> int:
        return sum(s.tickets_static if static else s.tickets_atm for s in self.steps)

    def reduction_percent(self) -> float:
        before = self.total_tickets(static=True)
        if before == 0:
            return float("nan")
        return 100.0 * (before - self.total_tickets()) / before

    def mean_ape(self) -> float:
        values = [s.ape for s in self.steps if np.isfinite(s.ape)]
        return float(np.mean(values)) if values else float("nan")

    def steps_for(self, resource: Resource) -> List[OnlineStep]:
        return [s for s in self.steps if s.resource is resource]


def _check_cadence(refit_every_steps: int, drift_threshold: Optional[float]) -> None:
    """Validate the cadence cap and drift threshold of an online run.

    ``not drift_threshold >= 0`` also rejects NaN, which compares false
    against every drift score and would silently turn re-search off.
    """
    if refit_every_steps < 1:
        raise ValueError("refit_every_steps must be >= 1")
    if drift_threshold is not None and not drift_threshold >= 0:
        raise ValueError(
            "drift_threshold must be >= 0 (inf turns drift re-search "
            f"off), got {drift_threshold}"
        )


class OnlineAtmController:
    """Day-by-day rolling ATM for one box.

    Parameters
    ----------
    box:
        The full box trace (training prefix + the days to manage).
    config:
        ATM configuration; ``training_windows`` is the sliding-window
        length and ``horizon_windows`` the per-step resizing window.
    refit_every_steps:
        Cadence cap on the (expensive) signature search: re-run it at
        least every k steps.  Intermediate steps keep the fitted spatial
        model but re-anchor the temporal models on the advanced training
        window (warm-started from the previous step's fit) — the
        practical deployment compromise.  The search also re-runs *early*
        whenever the drift score exceeds ``drift_threshold``, so a large
        cap is safe.
    drift_threshold:
        Drift-score trigger of the early re-search (``None`` =
        :data:`DRIFT_THRESHOLD_DEFAULT`; ``inf`` turns it off, leaving the
        pure cadence).  Only consulted between cadence refits.
    """

    def __init__(
        self,
        box: BoxTrace,
        config: Optional[AtmConfig] = None,
        refit_every_steps: int = 1,
        drift_threshold: Optional[float] = None,
    ) -> None:
        _check_cadence(refit_every_steps, drift_threshold)
        self.box = box
        self.config = config or AtmConfig()
        # A controller acts on the ATM allocation alone: size nothing else.
        self._step_config = replace(self.config, algorithms=(ResizingAlgorithm.ATM,))
        self.refit_every_steps = refit_every_steps
        self.drift_threshold = (
            DRIFT_THRESHOLD_DEFAULT if drift_threshold is None else float(drift_threshold)
        )
        self._demands: Optional[np.ndarray] = None
        self._predictor: Optional[SpatialTemporalPredictor] = None
        self._fitted_at_step = -10**9
        self._degradations: List[DegradationEvent] = []

    @property
    def n_steps(self) -> int:
        """How many full resizing windows the trace supports."""
        cfg = self.config
        spare = self.box.n_windows - cfg.training_windows
        return max(0, spare // cfg.horizon_windows)

    def run(self) -> OnlineRunResult:
        """Roll over every available resizing window.

        The one-box case of the lock-step loop that
        :func:`run_online_fleet` runs over a chunk of boxes.
        """
        (outcome,) = _run_lockstep([self])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _start(self) -> OnlineRunResult:
        """Open the rolling run: read the box once and return its empty result."""
        if self.n_steps == 0:
            raise ValueError(
                f"box {self.box.box_id} too short for one online step "
                f"({self.box.n_windows} windows, need "
                f"{self.config.training_windows + self.config.horizon_windows})"
            )
        # Read-only so the per-step training slices cannot write into it.
        self._demands = self.box.demand_matrix()
        self._demands.flags.writeable = False
        result = OnlineRunResult(box_id=self.box.box_id)
        self._degradations = result.degradations
        return result

    def _run_at(self, step: int) -> _BoxRun:
        """The offline box run, ``step`` horizons later."""
        cfg = self.config
        start = cfg.training_windows + step * cfg.horizon_windows
        return _BoxRun(self.box, self._step_config, start, self._demands)

    def _search_due(self, step: int, train: np.ndarray) -> bool:
        """Whether this step re-runs the signature search.

        Due when no predictor exists or the cadence cap expired; between
        cap refits, the drift score may pull the search forward: the spatial
        model's relative reconstruction error on the advanced window is
        compared against its fit-time baseline, and a rise beyond
        ``drift_threshold`` means the signature set no longer explains the
        workload — re-search now rather than ride out the cap.
        """
        if (
            self._predictor is None
            or step - self._fitted_at_step >= self.refit_every_steps
        ):
            if self._predictor is not None:
                obs.inc("online.refit.cap")
            return True
        with obs.span("online.drift_check"):
            drift = (
                self._predictor.reconstruction_error(train)
                - self._predictor.baseline_reconstruction_error
            )
        obs.gauge_max("online.drift_score", drift)
        if drift > self.drift_threshold:
            obs.inc("online.refit.drift")
            return True
        obs.inc("online.drift_skips")
        return False

    # ------------------------------------------------------- ladder rung 1
    def _begin_primary(
        self, run: _BoxRun, step: int
    ) -> Tuple["_PendingFit", Tuple[SpatialTemporalPredictor, List[np.ndarray]]]:
        """Gather half of the primary rung: search or re-anchor, fit deferred.

        A due search installs a fresh predictor (its warm chain empty, so
        its fit is cold); otherwise the temporal models re-anchor on the
        advanced window, warm-started from the last fit, while the
        signature search is reused — else every intermediate step would
        replay the prediction of the last refit verbatim.  Returns the
        step's bookkeeping and its :func:`~repro.core.stages.fit_pending`
        entry.  A failure anywhere in the rung drops the predictor
        (:meth:`_fall_back`), so an unfinished one never serves a step.
        """
        train = run.training_demands()
        refit = not self._search_due(step, train)
        begun = time.perf_counter()
        if refit:
            histories = self._predictor.begin_refit_temporal(train)
        else:
            predictor = SpatialTemporalPredictor(self.config.prediction)
            histories = predictor.begin_fit(train)
            self._predictor, self._fitted_at_step = predictor, step
        pending = _PendingFit(refit, time.perf_counter() - begun)
        return pending, (self._predictor, histories)

    def _finish_primary(
        self, run: _BoxRun, pending: "_PendingFit", fit_share_s: float
    ) -> BoxAtmResult:
        """Scatter half of the primary rung: forecast and size the fitted step.

        The step's ``online.fit`` or ``online.refit_temporal`` span is its
        begin time plus ``fit_share_s``, its share of the chunk's fit
        phase.
        """
        if pending.refit:
            span, counter = "online.refit_temporal", "online.refit_temporal"
        else:
            span, counter = "online.fit", "online.refit"
        obs.add_span(span, pending.seconds + fit_share_s)
        obs.inc(counter)
        with obs.span("online.predict"):
            prediction = self._predictor.predict(self.config.horizon_windows)
        return evaluate_forecast_stages(run, prediction)

    def _degrade(self, step: int, rung: str, exc: Exception) -> str:
        """Record a rung transition of ``step``; returns the reason."""
        reason = repr(exc)
        self._degradations.append(
            DegradationEvent(
                box_id=self.box.box_id, stage="fit", rung=rung, reason=reason, step=step
            )
        )
        return reason

    def _fall_back(
        self, run: _BoxRun, step: int, exc: Exception
    ) -> Tuple[Optional[BoxAtmResult], str, Optional[str]]:
        """The ladder below the primary rung, which raised ``exc``.

        Returns ``(result | None, rung, reason)``; a ``None`` result means
        the hold rung — keep the current allocation.
        """
        # A half-fitted predictor must not serve later steps.
        self._predictor = None
        obs.inc("online.fallback.seasonal")
        reason = self._degrade(step, RUNG_SEASONAL, exc)
        try:
            prediction = run.seasonal_forecast()
            return evaluate_forecast_stages(run, prediction), RUNG_SEASONAL, reason
        except Exception as exc:
            obs.inc("online.fallback.hold")
            return None, RUNG_HOLD, self._degrade(step, RUNG_HOLD, exc)

    def _record(
        self,
        result: OnlineRunResult,
        run: _BoxRun,
        step: int,
        sized: Optional[BoxAtmResult],
        rung: str,
        reason: Optional[str],
    ) -> None:
        """Append the step's per-resource records to ``result``."""
        cfg = self.config
        actual = run.split(run.actual)
        for resource in (Resource.CPU, Resource.RAM):
            if sized is None:
                # Hold rung: no usable prediction — keep the current
                # allocation, score no APE, and report the reason.
                current = self.box.allocations(resource)
                truth = ResizingProblem(
                    actual[resource], self.box.capacity(resource), cfg.policy.alpha
                )
                tickets = tickets_for_allocation(truth, current)
                record = OnlineStep(
                    step, resource, float("nan"), tickets, tickets, current,
                    rung=rung, reason=reason,
                )
            else:
                predicted = sized.predicted[resource]
                reduction = sized.reductions[(resource, ResizingAlgorithm.ATM)]
                apes = [
                    mean_absolute_percentage_error(observed, forecast)
                    for observed, forecast in zip(actual[resource], predicted)
                ]
                record = OnlineStep(
                    step,
                    resource,
                    finite_mean(apes),
                    reduction.tickets_before,
                    reduction.tickets_after,
                    sized.allocations[resource],
                    predicted_mean=float(predicted.mean()),
                    rung=rung,
                    reason=reason,
                )
                obs.inc("online.tickets_avoided", record.tickets_avoided)
            result.steps.append(record)


class _PendingFit(NamedTuple):
    """One box's primary-rung bookkeeping between its gather and scatter halves."""

    #: A warm re-anchor of the temporal models (else a fresh search's cold fit).
    refit: bool
    #: Time spent in the gather half's begin call.
    seconds: float


def _run_lockstep(
    controllers: Sequence[OnlineAtmController],
) -> List[Union[OnlineRunResult, Exception]]:
    """Advance every controller one step at a time; one outcome per controller.

    The controllers share one config.  Each step is three phases, in the
    shape of the offline :func:`repro.core.pipeline._run_primary`:

    * *gather* — each box's run at the step, its fault hooks, and either
      the drift check or the cadence decision: a search with its cold fit
      deferred (:meth:`~SpatialTemporalPredictor.begin_fit`) or a warm
      re-anchor (:meth:`~SpatialTemporalPredictor.begin_refit_temporal`);
    * *fit* — every gathered box's fit in one chained
      :func:`~repro.core.stages.fit_pending` call (fused cross-box passes
      for a kernel model), each predictor finished with its models;
    * *scatter* — each box's forecast, the
      :func:`~repro.core.stages.evaluate_forecast_stages` tail and, for a
      box whose primary rung raised anywhere, the seasonal then hold
      rungs.

    Every fit is bit-identical to the box's own, so each box's steps and
    events equal a one-box run's.  A box drops out after its last step.
    A box that raises outside the ladder gets that exception as its
    outcome and drops out; the others carry on.
    """
    if not controllers:
        return []
    outcomes: List[Union[OnlineRunResult, Exception]] = []
    for controller in controllers:
        try:
            outcomes.append(controller._start())
        except Exception as exc:
            outcomes.append(exc)
    step = 0
    while True:
        live = [
            pos
            for pos, controller in enumerate(controllers)
            if not isinstance(outcomes[pos], Exception) and step < controller.n_steps
        ]
        if not live:
            return outcomes
        runs: Dict[int, _BoxRun] = {}
        pending: Dict[int, _PendingFit] = {}
        fits: Dict[int, Tuple[SpatialTemporalPredictor, List[np.ndarray]]] = {}
        failed: Dict[int, Exception] = {}
        for pos in live:
            obs.inc("online.steps")
            try:
                runs[pos] = controllers[pos]._run_at(step)
            except Exception as exc:
                outcomes[pos] = exc
                continue
            try:
                pending[pos], fits[pos] = controllers[pos]._begin_primary(runs[pos], step)
            except Exception as exc:
                failed[pos] = exc

        share = 0.0
        if fits:
            begun = time.perf_counter()
            failed.update(fit_pending(fits, chained=True))
            share = (time.perf_counter() - begun) / len(fits)

        for pos in runs:
            controller, run = controllers[pos], runs[pos]
            try:
                try:
                    if pos in failed:
                        raise failed[pos]
                    sized = controller._finish_primary(run, pending[pos], share)
                    rung, reason = RUNG_PRIMARY, None
                except Exception as exc:
                    sized, rung, reason = controller._fall_back(run, step, exc)
                controller._record(outcomes[pos], run, step, sized, rung, reason)
            except Exception as exc:
                outcomes[pos] = exc
        step += 1


class OnlineFleetResult(Mapping[str, OnlineRunResult]):
    """Partial fleet results plus the structured degradation report.

    Behaves as a read-only mapping ``box_id -> OnlineRunResult`` (so
    pre-ladder callers keep working) while exposing :attr:`report` with
    every degradation event and whole-box failure of the run.
    """

    def __init__(
        self,
        results: Optional[Dict[str, OnlineRunResult]] = None,
        report: Optional[ErrorReport] = None,
    ) -> None:
        self.results: Dict[str, OnlineRunResult] = dict(results or {})
        self.report = report or ErrorReport()

    def __getitem__(self, box_id: str) -> OnlineRunResult:
        return self.results[box_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineFleetResult({len(self.results)} boxes, "
            f"{len(self.report.events)} degradation events)"
        )

    def total_tickets(self, static: bool = False) -> int:
        """Fleet-wide ticket total across every completed box's steps."""
        return sum(r.total_tickets(static=static) for r in self.results.values())

    def reduction_percent(self) -> float:
        """Fleet-wide ticket reduction of ATM over the static allocation."""
        before = self.total_tickets(static=True)
        if before == 0:
            return float("nan")
        return 100.0 * (before - self.total_tickets()) / before


def _run_online_chunk(
    boxes: Iterable[BoxTrace],
    config: AtmConfig,
    refit_every_steps: int,
    drift_threshold: Optional[float],
) -> Iterator[Union[Tuple[OnlineRunResult, List[DegradationEvent]], Exception]]:
    """Online's chunk function: the chunk's boxes stepped in lock-step.

    Yields each box's ``(result, events)`` pair, or the exception that
    failed it, in box order (module-level so pool workers can unpickle it).
    """
    controllers = [
        OnlineAtmController(
            box, config, refit_every_steps=refit_every_steps, drift_threshold=drift_threshold
        )
        for box in boxes
    ]
    for outcome in _run_lockstep(controllers):
        if isinstance(outcome, Exception):
            yield outcome
        else:
            yield outcome, list(outcome.degradations)


def run_online_fleet(
    fleet: Union[FleetTrace, "ShardedFleet"],
    config: Optional[AtmConfig] = None,
    refit_every_steps: int = 1,
    drift_threshold: Optional[float] = None,
    jobs: Optional[int] = None,
) -> OnlineFleetResult:
    """Run the rolling controller on every box long enough to support it.

    Per-box failures outside the fit/predict ladder do not abort the
    fleet: the box is recorded in ``result.report`` (rung ``"failed"``)
    and the remaining boxes run to completion.  A fleet with *no* eligible
    box likewise degrades to an empty result with one fleet-level
    ``"failed"`` event rather than raising.

    ``fleet`` may be in RAM or sharded; ``jobs`` (``None`` reads
    ``REPRO_JOBS``; 1 = serial) configures the fan-out
    (:func:`repro.core.executor.run_fleet`, ~4 chunks per worker, at
    most :data:`ONLINE_CHUNK_BOXES` boxes each, which bounds the live
    controllers of a chunk at any fleet size), whose
    results aggregate in fleet box order, identically for any worker
    count.
    """
    _check_cadence(refit_every_steps, drift_threshold)
    cfg = config or AtmConfig()
    needed = cfg.training_windows + cfg.horizon_windows
    results: Dict[str, OnlineRunResult] = {}
    report = ErrorReport()
    items = fleet_items(fleet, needed)
    chunksize = min(default_chunksize(len(items), resolve_jobs(jobs)), ONLINE_CHUNK_BOXES)

    def fold(pair: Tuple[Optional[OnlineRunResult], List[DegradationEvent]]) -> None:
        result, events = pair
        report.extend(events)
        if result is not None:
            results[result.box_id] = result

    run_fleet(
        "online", _run_online_chunk, items, cfg, refit_every_steps, drift_threshold,
        key=None, fold=fold, report=report, fleet=fleet, min_windows=needed,
        jobs=jobs, chunksize=chunksize,
    )
    return OnlineFleetResult(results=results, report=report)
