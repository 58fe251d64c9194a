"""Artifact store — warm-vs-cold wall clock for ablation sweeps.

The staged pipeline materializes signature searches, forecasts and box
results in the content-addressed store (``REPRO_STORE``).  This bench
measures what that buys the workflows the store was built for:

* an ε/horizon ablation sweep over one fleet, run cold (empty store)
  and warm (second invocation against the populated store, which the
  disk tier alone serves); the warm sweep must be ≥ 2x faster;
* a parallel (jobs=N) fleet run repeated against a fresh store of its
  own: the first run must search every box and the second must perform
  **zero** signature searches — pool workers persist their results
  instead of losing them with the pool;
* per-stage ``put`` and ``get`` microseconds on the artifacts a 104-box
  ``seasonal_mean`` predict (paper-fig2, jobs=2) stores, next to the
  container costs the npz layout had on the same artifacts
  (``NPZ_BEFORE``).

Aggregates of every warm run are digest-checked against the cold run:
the store may only change wall clock, never results.

Results land in ``BENCH_store.json``.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_artifact_store.py [--quick]
        [--boxes N] [--output PATH]
"""

import argparse
import contextlib
import hashlib
import json
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.benchhelpers import print_table
from repro.core import AtmConfig, run_fleet_atm
from repro.prediction.combined import SpatialTemporalConfig
from repro.prediction.spatial.signatures import SignatureSearchConfig
from repro.store import STORE_ENV_VAR, ArtifactStore, get_codec
from repro.store.artifacts import _pack, _unpack
from repro.trace.generator import FleetConfig, generate_fleet

pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"

EPSILONS = (2.5, 5.0, 10.0)
HORIZONS = (48, 96)
TARGET_SPEEDUP = 2.0

#: The per-stage rows' predict run: boxes, scenario, worker count.
STAGE_BOXES = 104
STAGE_JOBS = 2
STAGE_SCENARIO = "paper-fig2"
#: Timed passes over each stage's artifacts; the fastest counts.
STAGE_REPEATS = 5

#: The same stages' container costs with the npz layout the store wrote
#: before its own format: ``np.savez`` into a buffer (encode) and
#: ``np.load`` of every array (decode), per artifact, on a 104-box
#: ``seasonal_mean`` predict store, best of 5 x 200 in-process on a
#: 2-CPU host.  ``arrays`` counts the npz's ``__meta__`` header array.
NPZ_BEFORE = {
    "box_result": {"arrays": 5, "kb": 15, "encode_us": 207, "decode_us": 541},
    "forecast": {"arrays": 10, "kb": 18, "encode_us": 382, "decode_us": 991},
    "spatial": {"arrays": 9, "kb": 4.7, "encode_us": 339, "decode_us": 716},
}


def _fleet(n_boxes: int):
    return generate_fleet(
        FleetConfig(n_boxes=n_boxes, days=6, seed=20160630), name="bench-store"
    )


def _config(temporal_model: str) -> AtmConfig:
    return AtmConfig(
        prediction=SpatialTemporalConfig(
            search=SignatureSearchConfig(),
            temporal_model=temporal_model,
        )
    )


def _digest(results) -> str:
    """Order-preserving digest of a sweep's aggregates (repr keeps bits)."""
    payload = repr(
        [
            (
                r.accuracies,
                [
                    (x.box_id, x.resource, x.algorithm, x.tickets_before, x.tickets_after)
                    for x in r.reduction.results
                ],
            )
            for r in results
        ]
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _run_sweep(fleet, config: AtmConfig):
    """One ε + horizon ablation sweep; returns its fleet results."""
    results = []
    for epsilon in EPSILONS:
        results.append(run_fleet_atm(fleet, replace(config, epsilon_pct=epsilon)))
    for horizon in HORIZONS:
        results.append(run_fleet_atm(fleet, replace(config, horizon_windows=horizon)))
    return results


def _timed_sweep(fleet, config):
    obs.reset_metrics()
    start = time.perf_counter()
    results = _run_sweep(fleet, config)
    seconds = time.perf_counter() - start
    counters = obs.metrics_snapshot()["counters"]
    return {
        "seconds": seconds,
        "digest": _digest(results),
        "signature_searches": int(counters.get("spatial.search.computed", 0)),
        "fits": int(counters.get("predict.fits", 0)),
        "forecast_hits": int(counters.get("stages.forecast.hits", 0)),
    }


def _parallel_zero_search_check(fleet, config, jobs: int = 2):
    """Two jobs=N runs against a fresh store of their own.

    The first computes every box's search in pool workers; the second
    computes none, which holds only if the workers' puts landed on disk.
    """
    with _fresh_store("repro-store-parallel-"):
        obs.reset_metrics()
        first = run_fleet_atm(fleet, config, jobs=jobs, chunksize=1)
        first_searches = int(
            obs.metrics_snapshot()["counters"].get("spatial.search.computed", 0)
        )
        obs.reset_metrics()
        second = run_fleet_atm(fleet, config, jobs=jobs, chunksize=1)
        second_searches = int(
            obs.metrics_snapshot()["counters"].get("spatial.search.computed", 0)
        )
    assert _digest([first]) == _digest([second]), "parallel store run changed results"
    return {"jobs": jobs, "first_run": first_searches, "second_run": second_searches}


def _best_pass_s(calls) -> float:
    """Fastest of ``STAGE_REPEATS`` timed passes over ``calls``."""
    best = float("inf")
    for _ in range(STAGE_REPEATS):
        start = time.perf_counter()
        for call in calls:
            call()
        best = min(best, time.perf_counter() - start)
    return best


def _per_stage_costs(n_boxes: int):
    """Per-stage ``put``/``get`` µs on the artifacts of one predict run.

    Each row averages one stage's artifacts: a ``get`` reads and decodes
    the file, a ``put`` encodes the value and replaces the file; the
    container columns time the flat format alone (the codec's arrays and
    meta to bytes and back, no file), the counterpart of ``NPZ_BEFORE``.
    """
    fleet = generate_fleet(
        FleetConfig(n_boxes=n_boxes, seed=20160630), name=f"{STAGE_SCENARIO}-{n_boxes}"
    )
    rows = []
    with _fresh_store("repro-store-stages-") as root:
        run_fleet_atm(fleet, _config("seasonal_mean"), jobs=STAGE_JOBS)
        store = ArtifactStore(root)
        for stage in sorted(NPZ_BEFORE):
            found = list(store.headers(stage))
            keys = [key for _, key, _ in found]
            values = [store.get(key) for key in keys]
            assert keys and all(value is not None for value in values), stage
            get_s = _best_pass_s([lambda key=key: store.get(key) for key in keys])
            put_s = _best_pass_s(
                [lambda key=key, value=value: store.put(key, value)
                 for key, value in zip(keys, values)]
            )
            codec = get_codec(stage)
            encoded = [codec.encode(value) for value in values]
            blobs = [bytes(_pack({"meta": meta}, arrays)) for arrays, meta in encoded]
            pack_s = _best_pass_s(
                [lambda arrays=arrays, meta=meta: _pack({"meta": meta}, arrays)
                 for arrays, meta in encoded]
            )
            unpack_s = _best_pass_s([lambda blob=blob: _unpack(blob) for blob in blobs])
            rows.append({
                "stage": stage,
                "boxes": n_boxes,
                "scenario": STAGE_SCENARIO,
                "jobs": STAGE_JOBS,
                "artifacts": len(keys),
                "mean_arrays": sum(len(arrays) for arrays, _ in encoded) / len(keys),
                "mean_bytes": sum(path.stat().st_size for path, _, _ in found) / len(keys),
                "put_us": put_s / len(keys) * 1e6,
                "get_us": get_s / len(keys) * 1e6,
                "container_encode_us": pack_s / len(keys) * 1e6,
                "container_decode_us": unpack_s / len(keys) * 1e6,
                "npz_before": NPZ_BEFORE[stage],
            })
    return rows


def _store_stats(root: Path):
    files = [p for p in root.rglob("*.npz")]
    return {
        "artifacts": len(files),
        "bytes": int(sum(p.stat().st_size for p in files)),
    }


@contextlib.contextmanager
def _fresh_store(prefix: str):
    """``REPRO_STORE`` at a new temporary directory for the block; yields it."""
    previous = os.environ.get(STORE_ENV_VAR)
    with tempfile.TemporaryDirectory(prefix=prefix) as root:
        os.environ[STORE_ENV_VAR] = root
        try:
            yield Path(root)
        finally:
            if previous is None:
                os.environ.pop(STORE_ENV_VAR, None)
            else:
                os.environ[STORE_ENV_VAR] = previous


def run_bench(
    n_boxes: int, temporal_model: str, enforce: bool, stage_boxes: int = STAGE_BOXES
) -> dict:
    fleet = _fleet(n_boxes)
    config = _config(temporal_model)
    with _fresh_store("repro-store-bench-") as root:
        cold = _timed_sweep(fleet, config)
        warm = _timed_sweep(fleet, config)
        stats = _store_stats(root)
    parallel = _parallel_zero_search_check(fleet, config)
    per_stage = _per_stage_costs(stage_boxes)

    speedup = cold["seconds"] / warm["seconds"] if warm["seconds"] > 0 else float("inf")
    report = {
        "bench": "artifact_store",
        "fleet": f"bench-store-{n_boxes} (seed 20160630)",
        "temporal_model": temporal_model,
        "sweep": {
            "epsilons_pct": list(EPSILONS),
            "horizons": list(HORIZONS),
            "cold": cold,
            "warm": warm,
            "warm_speedup": speedup,
            "results_identical": cold["digest"] == warm["digest"],
        },
        "parallel_signature_searches": parallel,
        "store": stats,
        "per_stage": per_stage,
    }

    assert report["sweep"]["results_identical"], "warm sweep changed results"
    assert warm["signature_searches"] == 0, "warm sweep recomputed searches"
    # Every (ε, horizon) combination was materialized by the cold sweep, so
    # the warm sweep serves all forecasts from disk and refits nothing.
    assert warm["fits"] == 0, "warm sweep recomputed temporal fits"
    assert parallel["first_run"] == n_boxes, "first jobs=N run did not search every box"
    assert parallel["second_run"] == 0, "second jobs=N run recomputed searches"
    if enforce:
        assert speedup >= TARGET_SPEEDUP, (
            f"expected warm sweep >= {TARGET_SPEEDUP}x faster, "
            f"measured {speedup:.2f}x"
        )
    return report


def _print_report(report: dict) -> None:
    sweep = report["sweep"]
    print_table(
        f"Artifact store — ε{sweep['epsilons_pct']} + horizon{sweep['horizons']} "
        f"sweep ({report['fleet']}, {report['temporal_model']})",
        ["run", "seconds", "searches", "fits", "forecast hits"],
        [
            [
                name,
                sweep[name]["seconds"],
                sweep[name]["signature_searches"],
                sweep[name]["fits"],
                sweep[name]["forecast_hits"],
            ]
            for name in ("cold", "warm")
        ],
    )
    parallel = report["parallel_signature_searches"]
    print_table(
        "Signature searches computed per parallel run",
        ["run", "searches"],
        [["first (jobs=%d)" % parallel["jobs"], parallel["first_run"]],
         ["second (jobs=%d)" % parallel["jobs"], parallel["second_run"]]],
    )
    rows = report["per_stage"]
    print_table(
        f"Per-stage store costs ({rows[0]['boxes']}-box {rows[0]['scenario']} "
        f"seasonal_mean predict, jobs={rows[0]['jobs']}; µs per artifact)",
        ["stage", "artifacts", "arrays", "KB", "put", "get",
         "flat encode", "flat decode", "npz encode", "npz decode"],
        [
            [
                row["stage"], row["artifacts"], row["mean_arrays"],
                row["mean_bytes"] / 1024, row["put_us"], row["get_us"],
                row["container_encode_us"], row["container_decode_us"],
                row["npz_before"]["encode_us"], row["npz_before"]["decode_us"],
            ]
            for row in rows
        ],
    )
    print(
        f"warm speedup: {sweep['warm_speedup']:.2f}x, "
        f"store: {report['store']['artifacts']} artifacts "
        f"({report['store']['bytes']} bytes)"
    )


def test_artifact_store_speedup(benchmark):
    report = benchmark.pedantic(
        lambda: run_bench(n_boxes=8, temporal_model="neural", enforce=True),
        rounds=1,
        iterations=1,
    )
    _print_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small-fleet smoke run with a cheap temporal model (seconds); "
        "checks correctness, skips the speedup floor and the JSON artifact",
    )
    parser.add_argument("--boxes", type=int, default=None, help="fleet size")
    parser.add_argument(
        "--output", type=str, default=str(RESULTS_PATH),
        help="result JSON path (full mode only)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        report = run_bench(
            n_boxes=args.boxes or 4, temporal_model="seasonal_mean", enforce=False,
            stage_boxes=16,
        )
        _print_report(report)
        print("quick mode: correctness checks passed (speedup floor not enforced)")
        return 0
    report = run_bench(
        n_boxes=args.boxes or 12, temporal_model="neural", enforce=True
    )
    _print_report(report)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
