"""Fault-injection smoke: the degraded fleet completes, the healthy part
is bit-identical, and the metrics pipeline stays cheap.

Three checks, each an acceptance criterion of the hardening work:

1. **Graceful degradation** — with seeded faults killing at least one
   box's primary fit, ``run_fleet_atm`` and ``run_online_fleet`` still
   complete and report the degraded boxes in their structured reports.
2. **Isolation** — every box the faults spared produces results
   bit-identical to a no-faults run (hash-keyed decisions consume no
   shared RNG stream).
3. **Observability overhead** — the :mod:`repro.obs` counters/spans add
   ≤2% wall-clock to the serial fig10-style pipeline (``REPRO_METRICS=0``
   vs the default).

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_fault_injection.py [--quick]
        [--boxes N]
"""

import argparse
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.benchhelpers import print_table
from repro.core import AtmConfig, run_fleet_atm, run_online_fleet
from repro.core.faults import FaultPlan, FaultRule, _hash_unit, fault_plan
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.trace.generator import FleetConfig, generate_fleet

pytestmark = pytest.mark.slow

OVERHEAD_BUDGET_PCT = 2.0


def _config():
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="seasonal_mean"
    )


def _selective_plan(kinds, keys, seed=5):
    """A plan firing ``kinds`` for exactly the lowest-hash box of ``keys``."""
    probability = None
    victims = set()
    for kind in kinds:
        units = sorted((_hash_unit(seed, kind, k), k) for k in keys)
        victims.add(units[0][1])
        cut = (units[0][0] + units[1][0]) / 2.0
        probability = cut if probability is None else min(probability, cut)
    rules = tuple(FaultRule(kind, probability) for kind in kinds)
    return FaultPlan(rules=rules, seed=seed), victims


def run_degradation_smoke(n_boxes: int = 6):
    """Faulted fleet runs complete; healthy boxes are bit-identical."""
    config = _config()
    fleet = generate_fleet(FleetConfig(n_boxes=n_boxes, days=7, seed=29), name="faults")
    keys = [box.box_id for box in fleet]
    plan, victims = _selective_plan(("fit_error",), keys)

    clean = run_fleet_atm(fleet, config)
    clean_online = run_online_fleet(fleet, config)
    with fault_plan(plan):
        faulted = run_fleet_atm(fleet, config)
        faulted_online = run_online_fleet(fleet, config)

    degraded = set(faulted.report.degraded_boxes)
    assert degraded, "seeded faults degraded no box"
    assert degraded <= victims | set(keys)

    clean_by_id = {a.box_id: a for a in clean.accuracies}
    identical = 0
    for acc in faulted.accuracies:
        if acc.box_id in degraded:
            continue
        np.testing.assert_array_equal(acc.ape, clean_by_id[acc.box_id].ape)
        np.testing.assert_array_equal(acc.peak_ape, clean_by_id[acc.box_id].peak_ape)
        identical += 1
    assert identical == len(keys) - len(degraded)

    online_degraded = set(faulted_online.report.degraded_boxes)
    assert online_degraded
    for box_id in set(faulted_online) - online_degraded:
        for a, b in zip(clean_online[box_id].steps, faulted_online[box_id].steps):
            np.testing.assert_array_equal(a.allocation, b.allocation)
            assert a.tickets_atm == b.tickets_atm

    return [
        ["boxes", len(keys)],
        ["degraded (fig10)", len(degraded)],
        ["degraded (online)", len(online_degraded)],
        ["healthy bit-identical", identical],
    ]


def measure_metrics_overhead(n_boxes: int = 8, repeats: int = 3):
    """Serial fig10 pipeline wall-clock, metrics on vs off (best-of-N)."""
    config = _config()
    fleet = generate_fleet(FleetConfig(n_boxes=n_boxes, days=6, seed=31), name="obs-bench")

    def timed():
        obs.reset_metrics()
        start = time.perf_counter()
        run_fleet_atm(fleet, config, jobs=1)
        return time.perf_counter() - start

    # Warm-up: first-call imports and allocations stay out of both timed
    # legs.  Nothing is cached in-process, so each timed run repeats the
    # full signature search.
    run_fleet_atm(fleet, config, jobs=1)
    previous = os.environ.get(obs.METRICS_ENV_VAR)
    try:
        os.environ[obs.METRICS_ENV_VAR] = "0"
        off = min(timed() for _ in range(repeats))
        os.environ.pop(obs.METRICS_ENV_VAR)
        if previous is not None:
            os.environ[obs.METRICS_ENV_VAR] = previous
        on = min(timed() for _ in range(repeats))
    finally:
        if previous is None:
            os.environ.pop(obs.METRICS_ENV_VAR, None)
        else:
            os.environ[obs.METRICS_ENV_VAR] = previous
    overhead_pct = 100.0 * (on - off) / off if off > 0 else 0.0
    return on, off, overhead_pct


def test_fault_injection_smoke():
    rows = run_degradation_smoke(n_boxes=6)
    print_table("Fault-injection smoke (fig10 + online)", ["check", "value"], rows)


def test_metrics_overhead_budget():
    on, off, overhead_pct = measure_metrics_overhead()
    print_table(
        "Metrics overhead — serial fig10 pipeline",
        ["run", "seconds"],
        [["metrics on", on], ["metrics off", off], ["overhead %", overhead_pct]],
    )
    # Timing noise can dominate a sub-second run; allow the budget with a
    # floor of 20 ms absolute difference before failing.
    assert overhead_pct <= OVERHEAD_BUDGET_PCT or (on - off) <= 0.02, (
        f"metrics overhead {overhead_pct:.2f}% exceeds the "
        f"{OVERHEAD_BUDGET_PCT}% budget"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small-fleet smoke run (seconds); used by the CI fault gate",
    )
    parser.add_argument("--boxes", type=int, default=8, help="fleet size")
    args = parser.parse_args(argv)

    n_boxes = 4 if args.quick else args.boxes
    rows = run_degradation_smoke(n_boxes=n_boxes)
    print_table("Fault-injection smoke (fig10 + online)", ["check", "value"], rows)

    if not args.quick:
        on, off, overhead_pct = measure_metrics_overhead(n_boxes=n_boxes)
        print_table(
            "Metrics overhead — serial fig10 pipeline",
            ["run", "seconds"],
            [["metrics on", on], ["metrics off", off], ["overhead %", overhead_pct]],
        )
    print("fault-injection smoke: OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
