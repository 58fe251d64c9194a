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

Steps are *incremental* by default, restarting nothing they can reuse:

* **Warm-started refits** — the controller's predictor opts into the
  warm-refit chain (:mod:`repro.prediction.temporal.warm`): each
  temporal refit resumes from the previous step's ``(K, P)`` parameter
  state instead of re-training from scratch, with a validation-loss
  guard and per-step persistence for interrupted-run resume.  With
  ``refit_every_steps=1`` every step re-searches, so every fit is cold.
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
sharded, with one in-order fold for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Tuple, Union

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
from repro.core.executor import fleet_items, per_box, run_fleet
from repro.core.results import BoxAtmResult
from repro.core.stages import _BoxRun, evaluate_forecast_stages
from repro.prediction.combined import BoxPrediction, SpatialTemporalPredictor
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
        # Read-only so the per-step training slices cannot write into it.
        self._demands = box.demand_matrix()
        self._demands.flags.writeable = False
        self.config = config or AtmConfig()
        # A controller acts on the ATM allocation alone: size nothing else.
        self._step_config = replace(self.config, algorithms=(ResizingAlgorithm.ATM,))
        self.refit_every_steps = refit_every_steps
        self.drift_threshold = (
            DRIFT_THRESHOLD_DEFAULT if drift_threshold is None else float(drift_threshold)
        )
        self._predictor: Optional[SpatialTemporalPredictor] = None
        self._fitted_at_step = -10**9
        self._anchored_at_step = -10**9
        self._degradations: List[DegradationEvent] = []

    @property
    def n_steps(self) -> int:
        """How many full resizing windows the trace supports."""
        cfg = self.config
        spare = self.box.n_windows - cfg.training_windows
        return max(0, spare // cfg.horizon_windows)

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
    def _primary_prediction(self, run: _BoxRun, step: int) -> BoxPrediction:
        """Fit/advance the configured predictor and forecast the step."""
        cfg = self.config
        train = run.training_demands()
        if self._search_due(step, train):
            with obs.span("online.fit"):
                # warm_refits: subsequent refit_temporal calls on this
                # predictor chain through the warm-started kernel (the
                # initial fit below is cold — fresh signature set).
                predictor = SpatialTemporalPredictor(
                    cfg.prediction, warm_refits=True
                ).fit(train)
            self._predictor = predictor
            self._fitted_at_step = step
            self._anchored_at_step = step
            obs.inc("online.refit")
        elif step != self._anchored_at_step:
            # Non-refit step: the signature search is reused, but the
            # temporal models are re-anchored on the advanced window —
            # otherwise every intermediate step would replay the
            # prediction of the last refit verbatim.
            with obs.span("online.refit_temporal"):
                self._predictor.refit_temporal(train)
            self._anchored_at_step = step
            obs.inc("online.refit_temporal")
        with obs.span("online.predict"):
            return self._predictor.predict(cfg.horizon_windows)

    def _degrade(self, step: int, rung: str, exc: Exception) -> str:
        """Record a rung transition of ``step``; returns the reason."""
        reason = repr(exc)
        self._degradations.append(
            DegradationEvent(
                box_id=self.box.box_id, stage="fit", rung=rung, reason=reason, step=step
            )
        )
        return reason

    def _step(
        self, run: _BoxRun, step: int
    ) -> Tuple[Optional[BoxAtmResult], str, Optional[str]]:
        """Climb the degradation ladder for one step.

        Returns ``(result | None, rung, reason)``; a ``None`` result means
        the hold rung — keep the current allocation.
        """
        try:
            prediction = self._primary_prediction(run, step)
            return evaluate_forecast_stages(run, prediction), RUNG_PRIMARY, None
        except Exception as exc:
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

    def run(self) -> OnlineRunResult:
        """Roll over every available resizing window."""
        if self.n_steps == 0:
            raise ValueError(
                f"box {self.box.box_id} too short for one online step "
                f"({self.box.n_windows} windows, need "
                f"{self.config.training_windows + self.config.horizon_windows})"
            )
        cfg = self.config
        result = OnlineRunResult(box_id=self.box.box_id)
        self._degradations = result.degradations

        for step in range(self.n_steps):
            obs.inc("online.steps")
            # The offline box run, ``step`` horizons later.
            start = cfg.training_windows + step * cfg.horizon_windows
            run = _BoxRun(self.box, self._step_config, start, self._demands)
            sized, rung, reason = self._step(run, step)
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
        return result


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


def _run_box_online(
    box: BoxTrace,
    config: AtmConfig,
    refit_every_steps: int,
    drift_threshold: Optional[float],
) -> Tuple[OnlineRunResult, List[DegradationEvent]]:
    """One box's rolling run (module-level so pool workers can unpickle it)."""
    result = OnlineAtmController(
        box, config, refit_every_steps=refit_every_steps, drift_threshold=drift_threshold
    ).run()
    return result, list(result.degradations)


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
    (:func:`repro.core.executor.run_fleet`, ~4 chunks per worker), whose
    results aggregate in fleet box order, identically for any worker
    count.
    """
    _check_cadence(refit_every_steps, drift_threshold)
    cfg = config or AtmConfig()
    needed = cfg.training_windows + cfg.horizon_windows
    results: Dict[str, OnlineRunResult] = {}
    report = ErrorReport()

    def fold(pair: Tuple[Optional[OnlineRunResult], List[DegradationEvent]]) -> None:
        result, events = pair
        report.extend(events)
        if result is not None:
            results[result.box_id] = result

    run_fleet(
        "online", per_box(_run_box_online), fleet_items(fleet, needed), cfg,
        refit_every_steps, drift_threshold, key=None, fold=fold, report=report,
        fleet=fleet, min_windows=needed, jobs=jobs,
    )
    return OnlineFleetResult(results=results, report=report)
