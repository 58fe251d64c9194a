"""Parallel-scaling harness shared by the benches and the smoke tests.

:func:`scaling_report` times ``run_fleet_atm`` on one fleet at several
worker counts, verifies every run produces *numerically identical*
aggregates (the engine's core guarantee), and returns printable rows.
Without ``REPRO_STORE`` nothing is cached between runs, so each worker
count pays the full cost and the speedup column measures the engine.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchhelpers.fleetcache import BENCH_SEED
from repro.core.config import AtmConfig
from repro.core.executor import resolve_jobs
from repro.core.pipeline import FleetAtmResult, run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import ResizingAlgorithm
from repro.trace.generator import FleetConfig, generate_fleet
from repro.trace.model import FleetTrace, Resource

__all__ = ["bench_jobs", "fingerprint_result", "scaling_report", "quick_scaling_report"]


def bench_jobs() -> int:
    """Worker count for the bench harness: ``REPRO_JOBS`` or 1 (serial)."""
    return resolve_jobs(None)


def _nan_safe(value: float) -> object:
    """Make a float comparable under ``==`` even when it is ``nan``."""
    if isinstance(value, float) and value != value:
        return "nan"
    return value


def fingerprint_result(result: FleetAtmResult) -> Tuple:
    """Everything the Fig. 9/10 benches aggregate, as a comparable tuple.

    Two runs with this fingerprint equal are numerically identical for
    every downstream table: per-box accuracies (order included), per-box
    ticket counts, and the fleet-level means.  ``nan`` metrics (legitimate
    for degenerate boxes) compare equal to themselves.
    """
    accuracies = tuple(
        (a.box_id, _nan_safe(a.ape), _nan_safe(a.peak_ape), _nan_safe(a.signature_ratio))
        for a in result.accuracies
    )
    reductions = tuple(
        (r.box_id, r.resource.value, r.algorithm.value, r.tickets_before, r.tickets_after)
        for r in result.reduction.results
    )
    return (
        accuracies,
        reductions,
        _nan_safe(result.mean_ape()),
        _nan_safe(result.mean_ape(peak=True)),
        _nan_safe(result.mean_signature_ratio()),
        tuple(
            _nan_safe(result.mean_reduction(resource, algorithm))
            for resource in (Resource.CPU, Resource.RAM)
            for algorithm in ResizingAlgorithm
        ),
    )


def scaling_report(
    fleet: FleetTrace,
    jobs_list: Sequence[int] = (1, 2, 4),
    config: Optional[AtmConfig] = None,
) -> Tuple[List[List[float]], Dict[int, FleetAtmResult]]:
    """Time ``run_fleet_atm`` per worker count; assert identical results.

    Returns ``(rows, results)`` where each row is
    ``[jobs, seconds, speedup vs jobs=1]`` in ``jobs_list`` order.
    Raises ``AssertionError`` if any worker count changes any aggregate.
    """
    cfg = config or AtmConfig()
    rows: List[List[float]] = []
    results: Dict[int, FleetAtmResult] = {}
    baseline_seconds: Optional[float] = None
    baseline_fingerprint: Optional[Tuple] = None
    for jobs in jobs_list:
        start = time.perf_counter()
        result = run_fleet_atm(fleet, cfg, jobs=jobs)
        elapsed = time.perf_counter() - start
        fingerprint = fingerprint_result(result)
        if baseline_fingerprint is None:
            baseline_seconds = elapsed
            baseline_fingerprint = fingerprint
        else:
            assert fingerprint == baseline_fingerprint, (
                f"jobs={jobs} changed the fleet aggregates vs jobs={jobs_list[0]}"
            )
        rows.append([jobs, elapsed, baseline_seconds / elapsed])
        results[jobs] = result
    return rows, results


def quick_scaling_report(
    jobs_list: Sequence[int] = (1, 2),
) -> Tuple[List[List[float]], Dict[int, FleetAtmResult]]:
    """Small-fleet smoke run: 6 boxes, cheap temporal model, seconds not minutes.

    Used by ``bench_parallel_scaling.py --quick`` and the tier-1 test that
    keeps the harness from rotting.
    """
    fleet = generate_fleet(FleetConfig(n_boxes=6, days=6, seed=BENCH_SEED), name="scaling-6")
    config = AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="seasonal_mean"
    )
    return scaling_report(fleet, jobs_list=jobs_list, config=config)
