"""The three benchmark workloads: inputs, the timed call, digests and checks.

Each workload is a pair of functions run inside one benchmark child
process (see ``child.py``):

* ``setup(seed, workdir, boxes)`` builds the inputs from the seed alone and
  returns a state dict; everything here counts towards ``setup_s``;
* ``timed(state)`` makes the program calls that are measured and returns
  their results.

:func:`summarize` then reduces a workload's results to poolable totals
(box-days, tickets, APE sums), result digests, and the invariant
violations found by code that did not produce the results.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Tuple

import numpy as np

DEFAULT_SEED = 20160630

#: Boxes per repetition.  Sized so one repetition (set-up plus timed
#: phase) lasts about ``NOMINAL_REP_S`` on a 2-core x86 host.
BOXES = {"fleet-neural": 27, "daily-cycle-sharded": 104, "online-regime-shift": 9}
#: Nominal seconds per repetition: a run of ``--seconds S`` makes
#: ``round(S / NOMINAL_REP_S)`` repetitions (at least one), so its inputs
#: depend only on the seed and ``S``, never on the host's speed.
NOMINAL_REP_S = 5.0
#: Training days (5) plus the online steps (5).
ONLINE_DAYS = 10
#: Cadence cap out of reach: only the drift gate triggers a re-search.
ONLINE_NEVER_REFIT = 10**6
#: Worker processes per workload.
JOBS = {"fleet-neural": 1, "daily-cycle-sharded": 2, "online-regime-shift": 1}

#: Relative slack on "sum of allocations <= capacity" (float round-off).
CAPACITY_RTOL = 1e-9


def _digest(payload: object) -> str:
    return hashlib.blake2b(repr(payload).encode(), digest_size=16).hexdigest()


def _atm_config(temporal_model: str):
    from repro.core.config import AtmConfig
    from repro.prediction.spatial.signatures import ClusteringMethod

    return AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model=temporal_model
    )


def _render(scenario: str, n_boxes: int, seed: int, days: int = 7):
    from repro.trace import NAMED_SCENARIOS, FleetConfig, render_fleet

    cfg = FleetConfig(n_boxes=n_boxes, days=days, seed=seed)
    return render_fleet(NAMED_SCENARIOS[scenario], cfg)


# ------------------------------------------------------------ fleet-neural
def setup_fleet_neural(seed: int, workdir: str, boxes: int) -> dict:
    fleet = _render("paper-fig2", boxes, seed)
    return {"fleet": fleet, "config": _atm_config("neural")}


def timed_fleet_neural(state: dict) -> dict:
    from repro.core.pipeline import run_fleet_atm

    atm = run_fleet_atm(
        state["fleet"], state["config"], keep_box_results=True,
        jobs=JOBS["fleet-neural"],
    )
    return {"atm": atm}


# ------------------------------------------------------ daily-cycle-sharded
def setup_daily(seed: int, workdir: str, boxes: int) -> dict:
    from repro.store.shards import generate_fleet_shards, load_fleet_shards
    from repro.trace import FleetConfig

    root = f"{workdir}/shards"
    generate_fleet_shards(
        FleetConfig(n_boxes=boxes, seed=seed), root, name="paper-fig2", jobs=1
    )
    return {"fleet": load_fleet_shards(root), "config": _atm_config("seasonal_mean")}


def timed_daily(state: dict) -> dict:
    from repro.core.pipeline import run_fleet_atm
    from repro.tickets.ops import OpsConfig, run_fleet_ops

    jobs = JOBS["daily-cycle-sharded"]
    atm = run_fleet_atm(
        state["fleet"], state["config"], keep_box_results=True, jobs=jobs
    )
    ops = run_fleet_ops(state["fleet"], OpsConfig(atm=state["config"]), jobs=jobs)
    return {"atm": atm, "ops": ops}


# ------------------------------------------------------ online-regime-shift
def setup_online(seed: int, workdir: str, boxes: int) -> dict:
    fleet = _render("regime-shift", boxes, seed, days=ONLINE_DAYS)
    return {"fleet": fleet, "config": _atm_config("neural")}


def timed_online(state: dict) -> dict:
    from repro.core.online import run_online_fleet

    online = run_online_fleet(
        state["fleet"], state["config"], refit_every_steps=ONLINE_NEVER_REFIT,
        jobs=JOBS["online-regime-shift"],
    )
    return {"online": online}


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "fleet-neural": (setup_fleet_neural, timed_fleet_neural),
    "daily-cycle-sharded": (setup_daily, timed_daily),
    "online-regime-shift": (setup_online, timed_online),
}


# ---------------------------------------------------------------- digests
def offline_digest(atm) -> str:
    """Accuracies, per-box reductions and ATM allocations of a fleet run."""
    return _digest(
        (
            [(a.box_id, a.ape, a.peak_ape, a.signature_ratio) for a in atm.accuracies],
            [
                (r.box_id, r.resource.value, r.algorithm.value,
                 r.tickets_before, r.tickets_after, r.feasible)
                for r in atm.reduction.results
            ],
            [
                (b.box_id, [(res.value, np.asarray(b.allocations[res]).tobytes())
                            for res in sorted(b.allocations, key=lambda x: x.value)])
                for b in atm.box_results
            ],
            [(e.box_id, e.stage, e.rung, e.reason) for e in atm.report.events],
        )
    )


def ops_digest(ops) -> str:
    return _digest((ops.assignment_digest, ops.evidence_digest))


def online_digest(online) -> str:
    """Every step of every box plus every degradation event."""
    return _digest(
        (
            [
                (box_id, [
                    (s.day_index, s.resource.value, s.ape, s.tickets_static,
                     s.tickets_atm, s.allocation.tobytes(), s.predicted_mean, s.rung)
                    for s in r.steps
                ])
                for box_id, r in sorted(online.items())
            ],
            [(e.box_id, e.stage, e.rung, e.reason, e.step) for e in online.report.events],
        )
    )


# ----------------------------------------------------------------- checks
def _count_ok(value) -> bool:
    return isinstance(value, (int, np.integer)) and value >= 0


def _allocation_ok(allocation, capacity: float) -> bool:
    alloc = np.asarray(allocation, dtype=float)
    return bool(
        np.all(np.isfinite(alloc))
        and np.all(alloc >= 0.0)
        and alloc.sum() <= capacity * (1.0 + CAPACITY_RTOL)
    )


def check_offline(atm, boxes_by_id) -> Dict[str, List[str]]:
    """Per-box invariant violations of an offline ATM run."""
    bad: Dict[str, List[str]] = {}
    for b in atm.box_results:
        box = boxes_by_id(b.box_id)
        for res, alloc in b.allocations.items():
            if not _allocation_ok(alloc, box.capacity(res)):
                bad.setdefault(b.box_id, []).append(f"{res.value} allocation exceeds capacity")
    for r in atm.reduction.results:
        if not (_count_ok(r.tickets_before) and _count_ok(r.tickets_after)):
            bad.setdefault(r.box_id, []).append("ticket count not a non-negative integer")
    return bad


def check_ops(ops, n_boxes: int) -> List[str]:
    problems = []
    counts = [ops.tickets, ops.incidents, ops.spatial_incidents, ops.breached_incidents,
              ops.evidence_bundles, *ops.queue_counts]
    if not all(_count_ok(c) for c in counts):
        problems.append("ops counts must be non-negative integers")
    if ops.boxes != n_boxes:
        problems.append(f"ops folded {ops.boxes} boxes, expected {n_boxes}")
    return problems


def check_online(online, boxes_by_id) -> Dict[str, List[str]]:
    bad: Dict[str, List[str]] = {}
    for box_id, run in online.items():
        box = boxes_by_id(box_id)
        for s in run.steps:
            if not _allocation_ok(s.allocation, box.capacity(s.resource)):
                bad.setdefault(box_id, []).append(
                    f"step {s.day_index} {s.resource.value} allocation exceeds capacity"
                )
            if not (_count_ok(s.tickets_static) and _count_ok(s.tickets_atm)):
                bad.setdefault(box_id, []).append("ticket count not a non-negative integer")
    return bad


# -------------------------------------------------------------- summaries
def _atm_ticket_totals(atm) -> Tuple[int, int]:
    """Fleet tickets (static, ATM-sized), CPU and RAM combined."""
    from repro.resizing.evaluate import ResizingAlgorithm
    from repro.trace.model import Resource

    before = after = 0
    for res in (Resource.CPU, Resource.RAM):
        b, a = atm.reduction.totals(res, ResizingAlgorithm.ATM)
        before, after = before + b, after + a
    return before, after


def _finite(values) -> List[float]:
    return [float(v) for v in values if np.isfinite(v)]


def summarize(workload: str, state: dict, results: dict) -> dict:
    """One rep's poolable totals, digests and invariant violations.

    Totals (tickets, APE sums, box-days) rather than ratios, so a run can
    pool its repetitions before dividing.
    """
    fleet = state["fleet"]
    if workload == "online-regime-shift":
        online = results["online"]
        bad = check_online(online, fleet.box_by_id)
        problems: List[str] = []
        degraded = set(online.report.degraded_boxes)
        box_days = sum(len(r.steps) // 2 for r in online.values())
        tickets = (online.total_tickets(static=True), online.total_tickets())
        apes = _finite(s.ape for r in online.values() for s in r.steps)
        digests = {"online": online_digest(online)}
    else:
        atm = results["atm"]
        bad = check_offline(atm, fleet.box_by_id)
        problems = []
        if len(atm.accuracies) + len(atm.report.failed_boxes) != fleet.n_boxes:
            problems.append("not every box produced a result or a failure event")
        degraded = set(atm.report.degraded_boxes)
        box_days = fleet.n_boxes
        tickets = _atm_ticket_totals(atm)
        apes = _finite(a.ape for a in atm.accuracies)
        digests = {"atm": offline_digest(atm)}
        if "ops" in results:
            problems += check_ops(results["ops"], fleet.n_boxes)
            digests["ops"] = ops_digest(results["ops"])
    # A fleet-level violation cannot be pinned on one box: it fails them all.
    n_degraded = fleet.n_boxes if problems else len(degraded | set(bad))
    problems += [f"{box_id}: {msgs}" for box_id, msgs in sorted(bad.items())]
    return {
        "boxes": fleet.n_boxes,
        "box_days": box_days,
        "tickets_static": tickets[0],
        "tickets_atm": tickets[1],
        "ape_sum": sum(apes),
        "ape_count": len(apes),
        "degraded_boxes": n_degraded,
        "problems": problems,
        "digests": digests,
    }
