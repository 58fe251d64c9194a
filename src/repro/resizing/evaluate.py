"""Fleet-level resizing evaluation: ticket reduction per algorithm.

This module produces the numbers behind Fig. 8 (resizing on *actual*
demands — the oracle study isolating the algorithms) and, together with the
core pipeline, Fig. 10 (resizing on *predicted* demands — the full ATM).

:func:`size_box_resource` is ATM's one sizing step: every path that sizes
a box resource — this evaluation, the offline pipeline's resize stage,
the online controller and the testbed — calls it.  For each box and resource:

1. ``tickets_before``: tickets the evaluation-day demands generate under
   the box's *current* allocations.
2. Size the VMs with the chosen algorithm using the *sizing demands*
   (actual demands for the oracle study, predictions for full ATM).
3. ``tickets_after``: tickets the same evaluation-day demands generate
   under the new allocation.
4. ``reduction = 100 * (before - after) / before``, undefined (skipped)
   for boxes with no tickets to begin with.  Negative values mean the
   policy made things worse — max-min fairness does exactly that on a
   subset of boxes in Fig. 10.

Lower bounds default to the peak of the *sizing* demands (the paper's
"peak usage before resizing is satisfied"); upper bounds to the box
capacity.  An infeasible solve falls back to the current allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core import faults
from repro.core.degrade import RUNG_FAILED, DegradationEvent, ErrorReport
from repro.resizing.baselines import max_min_fairness_allocation, stingy_allocation
from repro.resizing.greedy import solve_greedy
from repro.resizing.mckp import build_mckp
from repro.resizing.problem import ResizingProblem, tickets_for_allocation
from repro.tickets.policy import TicketPolicy
from repro.timeseries.metrics import finite_mean, finite_std
from repro.trace.model import BoxTrace, FleetTrace, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.shards import ShardedFleet

__all__ = [
    "ResizingAlgorithm",
    "BoxReduction",
    "FleetReduction",
    "reduction_percent",
    "resize_allocation",
    "size_box_resource",
    "evaluate_box_resizing",
    "evaluate_fleet_resizing",
]


class ResizingAlgorithm(enum.Enum):
    """Sizing policies compared in Figs. 8 and 10."""

    ATM = "atm"                      # greedy MCKP with ε discretization
    ATM_NO_DISCRETIZATION = "atm_no_disc"
    MAX_MIN_FAIRNESS = "maxmin"
    STINGY = "stingy"


def reduction_percent(before: int, after: int) -> float:
    """Ticket reduction in percent; ``nan`` when there was nothing to reduce."""
    if before < 0 or after < 0:
        raise ValueError("ticket counts must be non-negative")
    if before == 0:
        return float("nan")
    return 100.0 * (before - after) / before


def redistribute_slack(
    problem: ResizingProblem,
    allocation: np.ndarray,
    current: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hand unused box capacity back to the VMs.

    The MCKP solution sizes VMs just large enough for the *predicted*
    demands; on a lowly utilized box that leaves capacity idle while
    prediction errors can push actual demand past the snug limits.  Any
    sane controller returns the slack: first restore VMs toward their
    current allocations (never shrink without need), then spread what
    remains as proportional headroom.  Extra capacity can only remove
    tickets, never add them.
    """
    alloc = np.asarray(allocation, dtype=float).copy()
    slack = problem.capacity - float(alloc.sum())
    if slack <= 1e-9:
        return alloc
    if current is not None:
        target = np.maximum(alloc, np.minimum(current, problem.upper_bounds))
        deficit = target - alloc
        total_deficit = float(deficit.sum())
        if total_deficit > 1e-12:
            grant = min(1.0, slack / total_deficit)
            alloc = alloc + deficit * grant
            slack -= total_deficit * grant
    if slack > 1e-9:
        room = problem.upper_bounds - alloc
        total_room = float(room.sum())
        if total_room > 1e-12:
            alloc = alloc + np.minimum(room, slack * room / total_room)
    return alloc


def resize_allocation(
    problem: ResizingProblem,
    algorithm: ResizingAlgorithm,
    epsilon: "np.ndarray | float" = 0.0,
    current: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, bool]:
    """Run one sizing policy on a problem; returns (allocation, feasible).

    ``current`` (the pre-resizing allocations) lets the ATM variants return
    unused slack via :func:`redistribute_slack`.
    """
    if algorithm is ResizingAlgorithm.STINGY:
        alloc = stingy_allocation(problem)
        return alloc, float(alloc.sum()) <= problem.capacity + 1e-9
    if algorithm is ResizingAlgorithm.MAX_MIN_FAIRNESS:
        # The fairness baseline is unaware of ATM's practical bounds
        # (Section IV-A.1 introduces them for the resizing algorithm only).
        # Without a peak-demand floor, progressive filling can leave large
        # VMs below their current coverage — the negative-reduction tail the
        # paper observes in Fig. 10.
        unbounded = ResizingProblem(
            demands=problem.demands,
            capacity=problem.capacity,
            alpha=problem.alpha,
            upper_bounds=problem.upper_bounds,
        )
        alloc = max_min_fairness_allocation(unbounded)
        return alloc, float(alloc.sum()) <= problem.capacity + 1e-9
    eps = epsilon if algorithm is ResizingAlgorithm.ATM else 0.0
    instance = build_mckp(problem, epsilon=eps)
    solution = solve_greedy(instance)
    alloc = solution.allocations
    if solution.feasible:
        alloc = redistribute_slack(problem, alloc, current=current)
    return alloc, solution.feasible


@dataclass(frozen=True)
class BoxReduction:
    """Outcome of resizing one box for one resource."""

    box_id: str
    resource: Resource
    algorithm: ResizingAlgorithm
    tickets_before: int
    tickets_after: int
    feasible: bool

    @property
    def reduction(self) -> float:
        return reduction_percent(self.tickets_before, self.tickets_after)

    @property
    def clipped_reduction(self) -> float:
        """Reduction floored at -100%, matching the paper's Fig. 8/10 axis.

        A policy that more than doubles a box's tickets contributes -100
        rather than an unbounded negative value, so fleet means stay
        comparable with the published bars.
        """
        value = self.reduction
        return max(-100.0, value) if np.isfinite(value) else value


@dataclass
class FleetReduction:
    """Aggregated ticket reductions across a fleet (one Fig. 8/10 bar each)."""

    results: List[BoxReduction] = field(default_factory=list)
    #: Boxes that failed during the fleet sweep (partial-results report).
    report: ErrorReport = field(default_factory=ErrorReport)

    def add(self, result: BoxReduction) -> None:
        self.results.append(result)

    def _reductions(
        self, resource: Resource, algorithm: ResizingAlgorithm
    ) -> np.ndarray:
        values = [
            r.clipped_reduction
            for r in self.results
            if r.resource is resource
            and r.algorithm is algorithm
            and r.tickets_before > 0
        ]
        return np.asarray(values, dtype=float)

    def mean_reduction(self, resource: Resource, algorithm: ResizingAlgorithm) -> float:
        return finite_mean(self._reductions(resource, algorithm))

    def std_reduction(self, resource: Resource, algorithm: ResizingAlgorithm) -> float:
        return finite_std(self._reductions(resource, algorithm))

    def totals(
        self, resource: Resource, algorithm: ResizingAlgorithm
    ) -> Tuple[int, int]:
        """(total tickets before, after) across the fleet."""
        before = sum(
            r.tickets_before
            for r in self.results
            if r.resource is resource and r.algorithm is algorithm
        )
        after = sum(
            r.tickets_after
            for r in self.results
            if r.resource is resource and r.algorithm is algorithm
        )
        return before, after


def size_box_resource(
    box_id: str,
    resource: Resource,
    current: np.ndarray,
    capacity: float,
    policy: TicketPolicy,
    algorithms: Sequence[ResizingAlgorithm],
    eval_demands: np.ndarray,
    sizing_demands: Optional[np.ndarray] = None,
    epsilon_pct: float = 5.0,
    lower_bounds: Optional[np.ndarray] = None,
) -> List[Tuple[BoxReduction, np.ndarray]]:
    """Size one box resource with each algorithm, and score the result.

    This is the sizing decision of ATM (paper Section IV), made in one
    place: problem R over the sizing demands (floored at 0), per-VM lower
    bounds clamped at the box capacity, every upper bound equal to the
    capacity, ε of ``epsilon_pct`` percent of each VM's ``current``
    capacity (the paper's demands are utilization-scaled, so a fixed ε=5
    is five *percentage points*), and the current allocation held
    whenever a solve is infeasible.

    Parameters
    ----------
    current, capacity:
        The resource's per-VM allocations before resizing and the box's
        total allocatable capacity.
    eval_demands:
        ``(M, T)`` demands the tickets are counted on — the evaluation
        window's actual demands.  Callers without ground truth pass the
        sizing demands here.
    sizing_demands:
        Demands fed to the sizing policies; defaults to ``eval_demands``
        (the Fig. 8 oracle).  Pass predictions for full-ATM evaluation.
    lower_bounds:
        Per-VM capacity floors; default is the peak of the sizing demands.

    Returns one ``(reduction, allocation)`` pair per algorithm, in order.
    """
    current = np.asarray(current, dtype=float)
    sizing = np.maximum(
        eval_demands if sizing_demands is None else sizing_demands, 0.0
    )
    if lower_bounds is None:
        lower_bounds = sizing.max(axis=1)
    upper_bounds = np.full(current.shape, capacity)
    problem = ResizingProblem(
        demands=sizing,
        capacity=capacity,
        alpha=policy.alpha,
        lower_bounds=np.minimum(lower_bounds, capacity),  # can't demand above the box
        upper_bounds=upper_bounds,
    )
    truth = ResizingProblem(
        demands=eval_demands,
        capacity=capacity,
        alpha=policy.alpha,
        upper_bounds=upper_bounds,
    )
    before = tickets_for_allocation(truth, current)

    epsilon = epsilon_pct / 100.0 * current
    out: List[Tuple[BoxReduction, np.ndarray]] = []
    for algorithm in algorithms:
        allocation, feasible = resize_allocation(
            problem, algorithm, epsilon=epsilon, current=current
        )
        if not feasible:
            obs.inc("resize.infeasible")
            allocation = current  # degrade to the status quo
        reduction = BoxReduction(
            box_id=box_id,
            resource=resource,
            algorithm=algorithm,
            tickets_before=before,
            tickets_after=tickets_for_allocation(truth, allocation),
            feasible=feasible,
        )
        out.append((reduction, allocation))
    return out


def evaluate_box_resizing(
    box: BoxTrace,
    resource: Resource,
    policy: TicketPolicy,
    algorithms: Sequence[ResizingAlgorithm],
    eval_demands: np.ndarray,
    sizing_demands: Optional[np.ndarray] = None,
    epsilon_pct: float = 5.0,
    lower_bounds: Optional[np.ndarray] = None,
) -> List[Tuple[BoxReduction, np.ndarray]]:
    """Evaluate sizing policies on one box and resource.

    :func:`size_box_resource` with the box's current allocations and
    capacity: one ``(reduction, allocation)`` pair per algorithm.
    """
    return size_box_resource(
        box.box_id,
        resource,
        box.allocations(resource),
        box.capacity(resource),
        policy,
        algorithms,
        eval_demands,
        sizing_demands=sizing_demands,
        epsilon_pct=epsilon_pct,
        lower_bounds=lower_bounds,
    )


def _evaluate_box_worker(
    item: Tuple[BoxTrace, Dict[Resource, Optional[np.ndarray]]],
    resources: Sequence[Resource],
    policy: TicketPolicy,
    algorithms: Sequence[ResizingAlgorithm],
    eval_windows: Optional[int],
    epsilon_pct: float,
    resume: bool = False,
) -> Tuple[List[BoxReduction], List[DegradationEvent]]:
    """Per-box unit of work for the fleet sweep (module-level: picklable).

    A failing box yields an empty result plus a ``failed`` degradation
    event instead of aborting the sweep.

    The box half of ``item`` may be a shard descriptor, mapped here in
    the worker; the box's sweep is its resumable artifact
    (:func:`~repro.core.executor.resume_probe`, namespace ``resize``).
    """
    # Local imports: repro.core.stages itself imports this module.
    from repro.core import stages
    from repro.core.executor import resume_probe
    from repro.store.shards import resolve_box

    box, sizing_by_resource = item
    box = resolve_box(box)
    cached, save = resume_probe(
        "resize",
        lambda: stages.resize_eval_key(
            box, sizing_by_resource, resources, policy, algorithms,
            eval_windows, epsilon_pct,
        ),
        resume,
    )
    if cached is not None:
        results, events = cached
        return list(results), list(events)
    out: List[BoxReduction] = []
    try:
        faults.inject_fault("box_error", box.box_id)
        with obs.span("resize.box"):
            for resource in resources:
                demands = box.demand_matrix(resource)
                if eval_windows is not None:
                    demands = demands[:, : min(eval_windows, demands.shape[1])]
                sized = evaluate_box_resizing(
                    box,
                    resource,
                    policy,
                    algorithms,
                    eval_demands=demands,
                    sizing_demands=sizing_by_resource.get(resource),
                    epsilon_pct=epsilon_pct,
                )
                out.extend(reduction for reduction, _ in sized)
        pair: Tuple[List[BoxReduction], List[DegradationEvent]] = (out, [])
    except Exception as exc:
        obs.inc("resize.boxes_failed")
        event = DegradationEvent(
            box_id=box.box_id, stage="run", rung=RUNG_FAILED, reason=repr(exc)
        )
        pair = ([], [event])
    save(pair)
    return pair


def evaluate_fleet_resizing(
    fleet: Union[FleetTrace, "ShardedFleet"],
    policy: TicketPolicy,
    algorithms: Sequence[ResizingAlgorithm] = tuple(ResizingAlgorithm),
    eval_windows: Optional[int] = None,
    sizing_demands: Optional[Dict[Tuple[str, Resource], np.ndarray]] = None,
    epsilon_pct: float = 5.0,
    resources: Sequence[Resource] = (Resource.CPU, Resource.RAM),
    jobs: Optional[int] = None,
    resume: bool = False,
) -> FleetReduction:
    """Run the resizing comparison across a fleet (the Fig. 8 study).

    ``fleet`` may be in RAM or sharded (see
    :func:`repro.core.executor.run_fleet`).  A failing box is reported in
    ``result.report`` (rung ``"failed"``) and the sweep goes on; a fleet
    without boxes yields an empty summary with one fleet-level
    ``"failed"`` event.

    Parameters
    ----------
    eval_windows:
        Restrict to the first ``k`` windows (e.g. one day = 96); ``None``
        evaluates the whole trace.
    sizing_demands:
        Optional per ``(box_id, resource)`` demand matrices to size against
        (the prediction-driven Fig. 10 path); by default sizing sees the
        actual evaluation demands.
    jobs:
        Worker processes for the per-box fan-out (``None`` reads
        ``REPRO_JOBS``, default 1 = serial); results are aggregated in
        fleet box order for any worker count.
    resume:
        Serve boxes whose sweep artifact is already materialized in the
        persistent store (``REPRO_STORE`` / ``--store``); no-op without
        one.
    """
    from repro.core.executor import fleet_items, run_fleet

    sizing = sizing_demands or {}
    items = [
        (box, {resource: sizing.get((box.box_id, resource)) for resource in resources})
        for box in fleet_items(fleet)
    ]

    summary = FleetReduction()

    def fold(pair: Tuple[List[BoxReduction], List[DegradationEvent]]) -> None:
        results, events = pair
        summary.report.extend(events)
        for result in results:
            summary.add(result)

    obs.inc("resize.boxes", len(items))
    run_fleet(
        _evaluate_box_worker, items, tuple(resources), policy, tuple(algorithms),
        eval_windows, epsilon_pct, resume,
        fold=fold, span="resize.fleet", fleet=fleet,
        report=summary.report, jobs=jobs,
    )
    return summary
