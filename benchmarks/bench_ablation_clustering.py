"""Clustering-method ablation: DTW vs CBC vs FEATURE (step 1 of ATM).

The paper evaluates DTW and CBC; its related work points at feature
extraction [11] as the third standard option, implemented here in
`repro.prediction.spatial.features`.  This ablation compares all three on
signature-set reduction, spatial-fit accuracy, and search wall time — the
trade-off a deployment must choose on.
"""

import time

import numpy as np

from repro.benchhelpers import bench_jobs, pipeline_fleet, print_table
from repro.core.executor import FleetExecutor
from repro.prediction.spatial.signatures import (
    ClusteringMethod,
    SignatureSearchConfig,
    search_signature_set,
)
from repro.timeseries.metrics import mean_absolute_percentage_error

TRAIN_WINDOWS = 5 * 96


def _box_signature_eval(box, config):
    """Per-box search + in-sample fit APE (module-level: pool-worker safe)."""
    data = box.demand_matrix()[:, :TRAIN_WINDOWS]
    model = search_signature_set(data, config)
    fitted = model.fitted(data)
    box_apes = [
        mean_absolute_percentage_error(data[i], fitted[i])
        for i in model.dependent_indices
    ]
    box_apes = [a for a in box_apes if np.isfinite(a)]
    ape = float(np.mean(box_apes)) if box_apes else None
    return 100.0 * model.signature_ratio, ape


def _evaluate(method: ClusteringMethod):
    fleet = pipeline_fleet(40)
    config = SignatureSearchConfig(method=method, dtw_window=12, period=96)
    start = time.perf_counter()
    per_box = FleetExecutor(jobs=bench_jobs()).map(_box_signature_eval, fleet.boxes, config)
    elapsed = time.perf_counter() - start
    ratios = [ratio for ratio, _ in per_box]
    apes = [ape for _, ape in per_box if ape is not None]
    return float(np.mean(ratios)), float(np.mean(apes)), elapsed


def test_clustering_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {m: _evaluate(m) for m in ClusteringMethod}, rounds=1, iterations=1
    )
    print_table(
        "Clustering ablation — signature ratio %, fit APE %, search seconds",
        ["method", "ratio", "APE", "seconds"],
        [[m.value, r, a, s] for m, (r, a, s) in results.items()],
    )

    dtw_ratio, dtw_ape, dtw_time = results[ClusteringMethod.DTW]
    cbc_ratio, cbc_ape, _cbc_time = results[ClusteringMethod.CBC]
    feat_ratio, feat_ape, feat_time = results[ClusteringMethod.FEATURE]

    # The documented trade-off triangle:
    assert dtw_ratio < cbc_ratio, "DTW reduces the most"
    assert cbc_ape < dtw_ape, "CBC fits dependents best"
    assert feat_time < dtw_time, "features are the cheapest search"
    # Features land between the extremes on reduction.
    assert dtw_ratio - 10.0 < feat_ratio < cbc_ratio + 20.0
