"""Vectorized spatial-search engine — kernel speedups and pinned decisions.

Times each vectorized spatial kernel against its definitional oracle
(the DTW and silhouette ones live in ``tests/timeseries/spatial_oracle.py``)
on the inputs the per-box signature search actually feeds it over
the shared pipeline bench fleet: the batched DTW wavefront
(``_dtw_batch`` vs ``_dtw_batch_reference``), the silhouette cut sweep
(``mean_silhouettes_for_cuts`` vs ``_silhouette_values_reference``), the
Gram VIFs and downdated stepwise elimination (vs ``_vif_reference`` /
``_stepwise_reference``), and the multi-RHS dependent OLS fits (vs
per-column ``fit_ols``).  Every kernel's output is checked against its
oracle on the way: bitwise for DTW, identical decisions for stepwise,
tight tolerances for the rest.  The DTW-path kernels (wavefront +
silhouette sweep) must come out >= 2x faster together.

The full per-box search (clustering + silhouette sweep + VIF stepwise +
dependent OLS fits) is timed once per clustering method and its
decisions digest is checked against the digest the reference search
produced at the same fleet size.

It then re-times the spatial-stage benches (fig05, fig06, fig07 and the
clustering ablation) and checks every deterministic table value against
the baselines recorded in ``bench_output_verbose.txt`` — the engine must
change wall-clock only.  Results land in ``BENCH_spatial.json``.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_spatial_vector.py [--quick]
        [--boxes N] [--no-figs]
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchhelpers import pipeline_fleet, print_table
from repro.prediction.spatial.cbc import correlation_based_clusters
from repro.prediction.spatial.dtw_cluster import dtw_clusters
from repro.prediction.spatial.signatures import (
    ClusteringMethod,
    SignatureSearchConfig,
    search_signature_set,
)
from repro.timeseries.clustering import HierarchicalClustering
from repro.timeseries.dtw import _dtw_batch, dtw_distance_matrix
from repro.timeseries.ecdf import histogram_shares
from repro.timeseries.metrics import mean_absolute_percentage_error
from repro.timeseries.regression import (
    _stepwise_reference,
    _vif_reference,
    fit_ols,
    fit_ols_multi,
    stepwise_eliminate,
    variance_inflation_factors,
)
from repro.timeseries.silhouette import mean_silhouettes_for_cuts
from repro.trace.model import Resource

# The DTW and silhouette oracles live with the tests; put the repository
# root on the path so the import also works when this file runs as a script.
_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))
from tests.timeseries.spatial_oracle import (  # noqa: E402
    _dtw_batch_reference,
    _silhouette_values_reference,
)

pytestmark = pytest.mark.slow

TARGET_SPEEDUP = 2.0  # DTW-path kernels (wavefront + silhouette), oracle vs vectorized
DTW_WINDOW = 12
REPEATS = 5
TRAIN_WINDOWS = 5 * 96
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_spatial.json"
FIG05_BINS = [2, 4, 6, 8, 10, 16, 32, 65]

#: Decisions digest of the full search per (method, boxes), as produced by
#: the per-column reference search; the vectorized search must match it.
PINNED_DIGESTS = {
    ("dtw", 6): "33f7a97ce06167d3",
    ("cbc", 6): "06a04758a906df59",
    ("dtw", 40): "accdb20026f93cc2",
    ("cbc", 40): "fd565be9480052a8",
}

#: Spatial-stage bench wall-clock (ms) before the vectorized engine, as
#: recorded in bench_output_verbose.txt — the regression reference.
BASELINE_MS = {
    "fig05": 1_965.0624,
    "fig06": 4_336.9080,
    "fig07": 4_245.7678,
    "clustering_ablation": 3_769.0467,
}

#: Deterministic table values from bench_output_verbose.txt, rounded as
#: printed (2 decimals).  The vectorized engine must reproduce every one.
EXPECTED_TABLES = {
    "fig05": {
        "dtw_shares": [77.50, 12.50, 5.00, 2.50, 2.50, 0.00, 0.00],
        "cbc_shares": [0.00, 5.00, 17.50, 20.00, 55.00, 2.50, 0.00],
        "cbc_cpu_share": 54.1,  # printed with 1 decimal
    },
    "fig06": {
        ("dtw", "clustering"): (18.57, 35.52),
        ("dtw", "stepwise"): (18.46, 35.52),
        ("cbc", "clustering"): (60.90, 25.43),
        ("cbc", "stepwise"): (54.75, 27.42),
    },
    "fig07": {
        ("cbc", "inter"): (54.75, 27.42),
        ("cbc", "intra-cpu"): (70.73, 36.28),
        ("cbc", "intra-ram"): (79.26, 23.29),
        ("dtw", "inter"): (18.46, 35.52),
        ("dtw", "intra-cpu"): (28.68, 46.28),
        ("dtw", "intra-ram"): (30.16, 29.66),
    },
    "clustering_ablation": {
        "dtw": (18.46, 35.52),
        "cbc": (54.75, 27.42),
        "feature": (15.65, 42.86),
    },
}


def _time_best(fn, repeats=REPEATS):
    """Best-of-N wall clock — the low-noise estimator on a busy machine."""
    best, result = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _search_pass(matrices, config):
    """One cold full-fleet search pass (the timed unit)."""
    return [search_signature_set(m, config) for m in matrices]


def _decisions_digest(models):
    decisions = tuple(
        (m.signature_indices, m.dependent_indices, m.cluster_labels) for m in models
    )
    return hashlib.sha256(repr(decisions).encode()).hexdigest()[:16]


def _training_matrices(n_boxes):
    fleet = pipeline_fleet(40)
    return [box.demand_matrix()[:, :TRAIN_WINDOWS] for box in fleet.boxes[:n_boxes]]


def search_decisions(n_boxes=40):
    """Vectorized full-search timings with their decisions digests.

    Returns one ``[method, boxes, seconds, digest]`` row per clustering
    method; the digest must equal the reference search's wherever
    :data:`PINNED_DIGESTS` records one for this fleet size.
    """
    matrices = _training_matrices(n_boxes)
    rows = []
    for method in (ClusteringMethod.DTW, ClusteringMethod.CBC):
        config = SignatureSearchConfig(method=method, dtw_window=DTW_WINDOW)
        seconds, models = _time_best(lambda: _search_pass(matrices, config))
        digest = _decisions_digest(models)
        pinned = PINNED_DIGESTS.get((method.value, len(matrices)))
        assert pinned is None or digest == pinned, (
            f"{method.value} search decisions diverge from the reference "
            f"search at {len(matrices)} boxes: {digest} != {pinned}"
        )
        rows.append([method.value, len(matrices), seconds, digest])
    return rows


def _zscore_rows(m):
    """Row standardization exactly as ``dtw_distance_matrix(zscore=True)``."""
    return np.vstack(
        [np.zeros_like(r) if r.std() <= 1e-12 else (r - r.mean()) / r.std() for r in m]
    )


def _kernel_inputs(matrices):
    """Per-box inputs of every spatial kernel, as the search would feed them."""
    inputs = []
    for m in matrices:
        n = m.shape[0]
        a_idx, b_idx = np.triu_indices(n, k=1)
        z = _zscore_rows(m)
        distances = dtw_distance_matrix(m, window=DTW_WINDOW, zscore=True)
        upper = int(np.clip(n // 2, 2, n))
        cuts = HierarchicalClustering(distances).cuts(range(2, upper + 1))
        model = search_signature_set(m, SignatureSearchConfig())
        inputs.append(
            {
                "dtw": (z[a_idx], z[b_idx]),
                "silhouette": (distances, cuts),
                "candidates": m[list(model.initial_signature_indices)].T,
                "ols": (
                    m[list(model.dependent_indices)].T,
                    m[list(model.signature_indices)].T,
                ),
            }
        )
    return inputs


def _dtw_vector(pair):
    return _dtw_batch(pair[0], pair[1], DTW_WINDOW)


def _dtw_oracle(pair):
    return _dtw_batch_reference(pair[0], pair[1], DTW_WINDOW)


def _silhouette_vector(job):
    return mean_silhouettes_for_cuts(*job)


def _silhouette_oracle(job):
    distances, cuts = job
    return {
        k: float(_silhouette_values_reference(distances, np.asarray(labels)).mean())
        for k, labels in cuts.items()
    }


def _ols_vector(job):
    return fit_ols_multi(*job)


def _ols_oracle(job):
    targets, regressors = job
    return [fit_ols(targets[:, k], regressors) for k in range(targets.shape[1])]


def _same_silhouettes(vec, ref):
    return vec.keys() == ref.keys() and all(
        abs(vec[k] - ref[k]) <= 1e-9 * max(1.0, abs(ref[k])) for k in ref
    )


def _same_ols(vec, ref):
    return all(
        np.allclose(v.coefficients, r.coefficients, rtol=1e-8, atol=1e-10)
        and np.isclose(v.intercept, r.intercept, rtol=1e-8, atol=1e-10)
        for v, r in zip(vec, ref)
    )


#: kernel -> (input key, vectorized fn, oracle fn, equivalence check).
KERNELS = {
    "dtw_wavefront": ("dtw", _dtw_vector, _dtw_oracle, np.array_equal),
    "silhouette_sweep": (
        "silhouette", _silhouette_vector, _silhouette_oracle, _same_silhouettes
    ),
    "vif": (
        "candidates",
        variance_inflation_factors,
        _vif_reference,
        lambda v, r: np.allclose(v, r, rtol=1e-6, atol=1e-8),
    ),
    "stepwise": (
        "candidates",
        stepwise_eliminate,
        lambda x: _stepwise_reference(x, 4.0),
        lambda v, r: v == r,
    ),
    "dependent_ols": ("ols", _ols_vector, _ols_oracle, _same_ols),
}

#: The kernels on the DTW search path, whose combined speedup is gated.
DTW_PATH_KERNELS = ("dtw_wavefront", "silhouette_sweep")


def kernel_speedups(n_boxes=40):
    """Oracle-vs-vectorized timings of every spatial kernel.

    Returns one ``[kernel, calls, oracle_s, vectorized_s, speedup]`` row
    per kernel; each call's vectorized output is checked against its
    oracle along the way.
    """
    inputs = _kernel_inputs(_training_matrices(n_boxes))
    rows = []
    for kernel, (key, vector_fn, oracle_fn, same) in KERNELS.items():
        jobs = [box[key] for box in inputs]
        ref_s, reference = _time_best(lambda: [oracle_fn(j) for j in jobs])
        vec_s, vectorized = _time_best(lambda: [vector_fn(j) for j in jobs])
        for vec, ref in zip(vectorized, reference):
            assert same(vec, ref), f"{kernel}: vectorized output diverges from oracle"
        rows.append([kernel, len(jobs), ref_s, vec_s, ref_s / vec_s])
    return rows


def dtw_path_speedup(rows):
    ref = sum(row[2] for row in rows if row[0] in DTW_PATH_KERNELS)
    vec = sum(row[3] for row in rows if row[0] in DTW_PATH_KERNELS)
    return ref / vec


def _fig05_values(fleet):
    dtw_counts, cbc_counts = [], []
    cbc_cpu = cbc_total = 0
    for box in fleet:
        data = box.demand_matrix()[:, :TRAIN_WINDOWS]
        dtw_counts.append(dtw_clusters(data, window=12).n_clusters)
        cbc = correlation_based_clusters(data)
        cbc_counts.append(cbc.n_clusters)
        cbc_total += len(cbc.signatures)
        cbc_cpu += sum(1 for s in cbc.signatures if s < box.n_vms)
    return {
        "dtw_shares": [
            round(100 * share, 2) for _, share in histogram_shares(dtw_counts, FIG05_BINS)
        ],
        "cbc_shares": [
            round(100 * share, 2) for _, share in histogram_shares(cbc_counts, FIG05_BINS)
        ],
        "cbc_cpu_share": round(100 * cbc_cpu / cbc_total, 1),
    }


def _sweep(fleet, config, variant="inter"):
    """Mean signature ratio %, mean dependent-fit APE % over the fleet."""
    ratios, apes = [], []
    for box in fleet:
        if variant == "inter":
            data = box.demand_matrix()[:, :TRAIN_WINDOWS]
        elif variant == "intra-cpu":
            data = box.demand_matrix(Resource.CPU)[:, :TRAIN_WINDOWS]
        else:
            data = box.demand_matrix(Resource.RAM)[:, :TRAIN_WINDOWS]
        model = search_signature_set(data, config)
        ratios.append(100.0 * model.signature_ratio)
        fitted = model.fitted(data)
        box_apes = [
            mean_absolute_percentage_error(data[i], fitted[i])
            for i in model.dependent_indices
        ]
        box_apes = [a for a in box_apes if np.isfinite(a)]
        if box_apes:
            apes.append(float(np.mean(box_apes)))
    return round(float(np.mean(ratios)), 2), round(float(np.mean(apes)), 2)


def _fig06_values(fleet):
    out = {}
    for method in (ClusteringMethod.DTW, ClusteringMethod.CBC):
        for stepwise in (False, True):
            config = SignatureSearchConfig(
                method=method, apply_stepwise=stepwise, dtw_window=12
            )
            key = (method.value, "stepwise" if stepwise else "clustering")
            out[key] = _sweep(fleet, config)
    return out


def _fig07_values(fleet):
    out = {}
    for method in (ClusteringMethod.CBC, ClusteringMethod.DTW):
        config = SignatureSearchConfig(method=method, dtw_window=12)
        for variant in ("inter", "intra-cpu", "intra-ram"):
            out[(method.value, variant)] = _sweep(fleet, config, variant)
    return out


def _ablation_values(fleet):
    return {
        method.value: _sweep(
            fleet, SignatureSearchConfig(method=method, dtw_window=12, period=96)
        )
        for method in ClusteringMethod
    }


def fig_tables():
    """Re-run the spatial-stage benches.

    Each fig's deterministic table values must match the baselines pinned
    from ``bench_output_verbose.txt``; the wall-clock is reported against
    the recorded pre-engine baseline.
    """
    fleet = pipeline_fleet(40)
    compute = {
        "fig05": _fig05_values,
        "fig06": _fig06_values,
        "fig07": _fig07_values,
        "clustering_ablation": _ablation_values,
    }
    timings = {}
    for fig, fn in compute.items():
        start = time.perf_counter()
        values = fn(fleet)
        measured_ms = 1000.0 * (time.perf_counter() - start)
        assert values == EXPECTED_TABLES[fig], (
            f"{fig}: table diverges from bench_output_verbose.txt: "
            f"{values} != {EXPECTED_TABLES[fig]}"
        )
        timings[fig] = {
            "baseline_ms": BASELINE_MS[fig],
            "measured_ms": measured_ms,
            "reduction_pct": 100.0 * (1.0 - measured_ms / BASELINE_MS[fig]),
            "tables_match_baseline": True,
        }
    return timings


def write_report(kernels, searches, figs):
    report = {
        "bench": "spatial_vector",
        "fleet": "pipeline-40 (seed 20160629)",
        "repeats": REPEATS,
        "kernels": [
            {
                "kernel": kernel,
                "calls": calls,
                "oracle_seconds": ref_s,
                "vectorized_seconds": vec_s,
                "speedup": speedup,
            }
            for kernel, calls, ref_s, vec_s, speedup in kernels
        ],
        "dtw_path_speedup": dtw_path_speedup(kernels),
        "search": [
            {
                "method": method,
                "boxes": boxes,
                "vectorized_seconds": seconds,
                "decisions_digest": digest,
            }
            for method, boxes, seconds, digest in searches
        ],
        "fig_wallclock": figs,
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _print_rows(kernels, searches):
    print_table(
        "Vectorized spatial kernels — oracle vs vectorized seconds",
        ["kernel", "calls", "oracle", "vectorized", "speedup"],
        kernels,
    )
    print_table(
        "Vectorized spatial search — full-fleet search seconds",
        ["method", "boxes", "vectorized", "digest"],
        searches,
    )


def _print_figs(figs):
    for fig, timing in figs.items():
        print(
            f"{fig}: {timing['measured_ms']:.0f}ms vs baseline "
            f"{timing['baseline_ms']:.0f}ms ({timing['reduction_pct']:.0f}% faster); "
            f"tables identical to bench_output_verbose.txt"
        )


def test_spatial_vector_speedup(benchmark):
    kernels, searches, figs = benchmark.pedantic(
        lambda: (kernel_speedups(), search_decisions(), fig_tables()),
        rounds=1,
        iterations=1,
    )
    _print_rows(kernels, searches)
    _print_figs(figs)
    write_report(kernels, searches, figs)

    assert dtw_path_speedup(kernels) >= TARGET_SPEEDUP, (
        f"expected >= {TARGET_SPEEDUP}x vectorized DTW-path kernel speedup, "
        f"measured {dtw_path_speedup(kernels):.2f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="few-box equivalence smoke, no fig re-timing, no JSON (seconds)",
    )
    parser.add_argument("--boxes", type=int, default=40, help="boxes to time")
    parser.add_argument(
        "--no-figs", action="store_true", help="skip the fig05-07/ablation re-timing"
    )
    args = parser.parse_args(argv)
    n_boxes = 6 if args.quick else args.boxes
    kernels = kernel_speedups(n_boxes=n_boxes)
    searches = search_decisions(n_boxes=n_boxes)
    _print_rows(kernels, searches)
    if args.quick:
        print("quick smoke: kernels match their oracles, decisions digests pinned "
              "(no JSON written)")
        return 0
    figs = {} if args.no_figs else fig_tables()
    _print_figs(figs)
    write_report(kernels, searches, figs)
    print(
        f"wrote {RESULTS_PATH.name}: DTW-path kernel speedup "
        f"{dtw_path_speedup(kernels):.2f}x (target >= {TARGET_SPEEDUP}x)"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
