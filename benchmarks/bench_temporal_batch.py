"""Batched temporal training — per-box fit speedup over serial MLP fits.

For every box of the shared pipeline fleet the ATM fit trains one MLP per
signature series.  This bench times that inner loop both ways — the
per-series reference loop (``tests/prediction/mlp_oracle.py``, one model
at a time) versus the batched tensor kernel behind the registry's one-box
fit (``fit_temporal_batch("neural", ...)``) — on the exact signature
histories the fig09/fig10 pipeline trains on, asserts the results are
bit-identical, and requires a ≥3× aggregate speedup (single-process
vectorization: no extra cores needed).

It also re-times the fig09/fig10 pipeline compute at ``jobs=1`` and writes
``BENCH_temporal.json`` next to the repo root — per-box fit seconds plus
the fig-level wall-clock against the pre-batching baseline recorded in
``bench_output_verbose.txt`` — so later PRs can track perf regressions.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_temporal_batch.py [--quick]
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
from repro.benchhelpers.scaling import fingerprint_result
from repro.core import AtmConfig, run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod, search_signature_set
from repro.prediction.registry import fit_temporal_batch
from repro.prediction.temporal.neural import MlpConfig

# The serial side lives with the tests; put the repository root on the
# path so the import also works when this file runs as a script.
_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))
from tests.prediction.mlp_oracle import serial_fits  # noqa: E402

pytestmark = pytest.mark.slow

TARGET_SPEEDUP = 3.0
REPEATS = 5
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_temporal.json"

#: fig09/fig10 wall-clock (ms, jobs=1) before the batched kernel, as
#: recorded in bench_output_verbose.txt — the regression reference.
BASELINE_MS = {"fig09": 25_924.9502, "fig10": 26_702.5730}


def _signature_histories(box, config):
    """The signature series a fig09/fig10 fit trains temporal models on."""
    windows = min(config.training_windows, box.n_windows)
    demands = box.demand_matrix()[:, :windows]  # stacked CPU+RAM
    spatial = search_signature_set(demands, config.prediction.search)
    return [demands[idx] for idx in spatial.signature_indices]


def _time_best(fn, repeats=REPEATS):
    """Best-of-N wall clock — the low-noise estimator on a busy machine."""
    best, result = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def per_box_speedup(n_boxes=8, config=None):
    """Serial-vs-batched fit timings over the shared bench fleet's boxes.

    Returns ``(rows, totals)``: one ``[box, K, serial_s, batched_s,
    speedup]`` row per multi-signature box, and the aggregate seconds.
    Bit-identical forecasts are asserted along the way.
    """
    cfg = config or AtmConfig.with_clustering(ClusteringMethod.CBC)
    mlp = MlpConfig(period=cfg.prediction.period)
    fleet = pipeline_fleet(40)
    rows = []
    total_serial = total_batched = 0.0
    for box in fleet.boxes[:n_boxes]:
        histories = _signature_histories(box, cfg)
        if len(histories) < 2:
            continue  # a K=1 box has nothing to batch: no speedup to measure
        serial_s, serial = _time_best(lambda: serial_fits(histories, mlp))
        batched_s, batched = _time_best(
            lambda: fit_temporal_batch("neural", histories, period=mlp.period)
        )
        for s, b in zip(serial, batched):
            np.testing.assert_array_equal(s.predict(96), b.predict(96))
        rows.append(
            [box.box_id, len(histories), serial_s, batched_s, serial_s / batched_s]
        )
        total_serial += serial_s
        total_batched += batched_s
    totals = {
        "serial_seconds": total_serial,
        "batched_seconds": total_batched,
        "speedup": total_serial / total_batched,
    }
    return rows, totals


def fig_wallclock():
    """Re-time the fig09/fig10 pipeline compute (jobs=1, batched kernel).

    Both figures run the same two ``run_fleet_atm`` sweeps (DTW + CBC) and
    report different aggregates, so each gets its own timed sweep; nothing
    is cached in-process, so each sweep pays its signature searches.
    """
    fleet = pipeline_fleet(40)
    timings = {}
    for fig in ("fig09", "fig10"):
        start = time.perf_counter()
        results = {
            method: run_fleet_atm(fleet, AtmConfig.with_clustering(method), jobs=1)
            for method in (ClusteringMethod.DTW, ClusteringMethod.CBC)
        }
        elapsed_ms = 1000.0 * (time.perf_counter() - start)
        baseline = BASELINE_MS[fig]
        timings[fig] = {
            "baseline_ms": baseline,
            "measured_ms": elapsed_ms,
            "reduction_pct": 100.0 * (1.0 - elapsed_ms / baseline),
            "fingerprint_digest": hashlib.sha256(
                repr(tuple(fingerprint_result(r) for r in results.values())).encode()
            ).hexdigest()[:16],
        }
    return timings


def write_report(rows, totals, figs):
    report = {
        "bench": "temporal_batch",
        "fleet": "pipeline-40 (seed 20160629)",
        "repeats": REPEATS,
        "per_box": [
            {
                "box_id": box_id,
                "n_signatures": k,
                "serial_seconds": serial_s,
                "batched_seconds": batched_s,
                "speedup": speedup,
            }
            for box_id, k, serial_s, batched_s, speedup in rows
        ],
        "totals": totals,
        "fig_wallclock": figs,
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _print_rows(rows, totals):
    print_table(
        "Batched temporal training — per-box fit time (s)",
        ["box", "K", "serial", "batched", "speedup"],
        rows,
    )
    print(
        f"aggregate: serial {totals['serial_seconds']:.2f}s, "
        f"batched {totals['batched_seconds']:.2f}s, "
        f"speedup {totals['speedup']:.2f}x"
    )


def test_temporal_batch_speedup(benchmark):
    (rows, totals), figs = benchmark.pedantic(
        lambda: (per_box_speedup(), fig_wallclock()), rounds=1, iterations=1
    )
    _print_rows(rows, totals)
    for fig, timing in figs.items():
        print(
            f"{fig}: {timing['measured_ms']:.0f}ms vs baseline "
            f"{timing['baseline_ms']:.0f}ms ({timing['reduction_pct']:.0f}% faster)"
        )
    write_report(rows, totals, figs)

    assert rows, "bench fleet must contain multi-signature boxes"
    assert totals["speedup"] >= TARGET_SPEEDUP, (
        f"expected >= {TARGET_SPEEDUP}x batched speedup, "
        f"measured {totals['speedup']:.2f}x"
    )
    for fig, timing in figs.items():
        assert timing["reduction_pct"] >= 40.0, (
            f"{fig} wall-clock must drop >= 40% vs bench_output_verbose.txt, "
            f"measured {timing['reduction_pct']:.1f}%"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="two-box smoke run, no fig re-timing, no JSON (seconds)",
    )
    parser.add_argument("--boxes", type=int, default=8, help="boxes to time")
    parser.add_argument(
        "--no-figs", action="store_true", help="skip the fig09/fig10 re-timing"
    )
    args = parser.parse_args(argv)
    if args.quick:
        rows, totals = per_box_speedup(n_boxes=2)
        _print_rows(rows, totals)
        print("quick smoke: equivalence OK (no JSON written)")
        return 0
    rows, totals = per_box_speedup(n_boxes=args.boxes)
    _print_rows(rows, totals)
    figs = {} if args.no_figs else fig_wallclock()
    for fig, timing in figs.items():
        print(
            f"{fig}: {timing['measured_ms']:.0f}ms vs baseline "
            f"{timing['baseline_ms']:.0f}ms ({timing['reduction_pct']:.0f}% faster)"
        )
    report = write_report(rows, totals, figs)
    print(f"wrote {RESULTS_PATH.name}: speedup {report['totals']['speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
