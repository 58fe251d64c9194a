"""Cross-box fused training plane — end-to-end shard+run wall-clock.

Benchmarks the fleet-level fused temporal training plane end to end:
``repro shard --jobs N`` parallel generation, then a ``jobs=N`` neural
pipeline whose chunk workers gather all their boxes' signature series
into cross-box ``(ΣK, P)`` mega-batches and train them in single fused
passes.

The run folds its per-box accuracies and reductions into a result
digest.  The fused fits are **bit-identical** to per-box fits, so at the
fleet sizes the per-box path was recorded for (:data:`PER_BOX_DIGESTS`)
the digest must match exactly; the benchmark fails loudly if it drifts.
It also fails if any box fell back to the per-box path on the clean run
or if the fused plane never engaged.  Per-box bit-identity at the unit
level lives in ``tests/core/test_fused_pipeline.py``.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_fused_fleet.py [--boxes 6000]
        [--jobs 4] [--quick] [--out BENCH_fused.json]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

BENCH_SCHEMA = "repro.bench_fused/v2"
DEFAULT_BOXES = 6000
DEFAULT_JOBS = 4
QUICK_BOXES = 32
DAYS = 6  # 5 training days + 1 evaluation day, the Fig. 9/10 setup

#: Result digest of the strictly per-box pipeline (seed 20160628, neural
#: CBC), by fleet size; the fused run must reproduce it bit for bit.
PER_BOX_DIGESTS = {
    QUICK_BOXES: (
        "fa4359a7855a768d027094661e142068f515570af3ce0da185f797ff98608690"
        "cd32b2a35c7a51fe3a75eaa704d04d2216938c01c43fe238839dff8ac5f5573f"
    ),
    200: (
        "bb1f9f446be6354fc26c2ab7336642f1b7ff8354989e0b9c43130dcb9fb50142"
        "226e3fdc7b02ad98ab0bfd70553a58b0517c1d4ff7afc89a97916344a30e57aa"
    ),
    DEFAULT_BOXES: (
        "5c80070b3616d719d288e8b82ef2325c8fbd4fd987c617280768e26feb24accf"
        "fda40c836fe54e9c66a3e677b6c26f6abdbfaa5a9821b416f83e8c78661cfcae"
    ),
}


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _result_digest(result) -> str:
    """Digest of every per-box outcome, exact to the last float bit.

    Folds each box's accuracy triple (downstream of every fused weight)
    and every ticket reduction, using ``float.hex`` so equal digests mean
    bit-equal results, not round-tripped approximations.
    """
    import hashlib

    h = hashlib.blake2b()
    for acc in result.accuracies:
        h.update(acc.box_id.encode())
        for value in (acc.ape, acc.peak_ape, acc.signature_ratio):
            h.update(float(value).hex().encode())
    for red in result.reduction.results:
        h.update(
            f"{red.box_id}:{red.resource.value}:{red.algorithm.value}:"
            f"{red.tickets_before}:{red.tickets_after}:{red.feasible}".encode()
        )
    return h.hexdigest()


def _run_leg(n_boxes: int, jobs: int, seed: int = 20160628) -> dict:
    """Child body: the end-to-end run (shard generation + fleet run)."""
    from repro import obs
    from repro.core import AtmConfig, run_fleet_atm
    from repro.prediction.spatial.signatures import ClusteringMethod
    from repro.store.shards import ShardedFleet, generate_fleet_shards
    from repro.trace.generator import FleetConfig
    from repro.trace.model import FORBID_GENERATION_ENV_VAR

    obs.reset_metrics()
    with tempfile.TemporaryDirectory(prefix="bench-fused-") as tmp:
        t0 = time.perf_counter()
        manifest = generate_fleet_shards(
            FleetConfig(n_boxes=n_boxes, days=DAYS, seed=seed), tmp, jobs=jobs
        )
        shard_s = time.perf_counter() - t0

        # From here on, materializing the whole fleet is a bug, not a cost.
        os.environ[FORBID_GENERATION_ENV_VAR] = "1"
        config = AtmConfig.with_clustering(
            ClusteringMethod.CBC, temporal_model="neural"
        )
        t0 = time.perf_counter()
        result = run_fleet_atm(ShardedFleet(tmp), config, jobs=jobs)
        run_s = time.perf_counter() - t0

        obs.record_peak_rss()
        snap = obs.metrics_snapshot()
        return {
            "scenario": "paper-fig2",
            "jobs": jobs,
            "boxes": n_boxes,
            "vms": manifest.n_vms,
            "shard_s": round(shard_s, 3),
            "run_s": round(run_s, 3),
            "total_s": round(shard_s + run_s, 3),
            "boxes_evaluated": len(result.accuracies),
            "digest": _result_digest(result),
            "peak_rss_bytes": int(snap["gauges"]["proc.peak_rss_bytes"]),
            "fused_groups": int(snap["counters"].get("fused.groups", 0)),
            "fused_models_per_pass": int(
                snap["gauges"].get("fused.models_per_pass", 0)
            ),
            "fused_fallback_boxes": int(
                snap["counters"].get("fused.fallback_boxes", 0)
            ),
        }


def _spawn_leg(n_boxes: int, jobs: int) -> dict:
    """Run the leg in a fresh subprocess (clean RSS + clean env) and collect it."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    try:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--child", "--boxes", str(n_boxes), "--jobs", str(jobs),
            "--out", out_path,
        ]
        subprocess.run(cmd, check=True, env=env)
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        try:
            os.unlink(out_path)
        except OSError:
            pass


def measure(n_boxes: int, jobs: int) -> dict:
    """Run the fused leg in subprocess isolation and assemble the report."""
    cpus = _effective_cpus()
    effective_jobs = max(1, min(jobs, cpus))
    leg = _spawn_leg(n_boxes, effective_jobs)
    per_box = PER_BOX_DIGESTS.get(n_boxes)
    return {
        "schema": BENCH_SCHEMA,
        "boxes": n_boxes,
        "days": DAYS,
        "requested_jobs": jobs,
        "effective_jobs": effective_jobs,
        "host_cpus": cpus,
        "leg": leg,
        "per_box_digest": per_box,
        # None: no per-box digest recorded at this fleet size.
        "bit_identical": None if per_box is None else leg["digest"] == per_box,
    }


def _print_report(report: dict) -> None:
    from repro.benchhelpers import print_table

    row = report["leg"]
    print_table(
        f"Fused fleet plane — {report['boxes']} boxes, "
        f"jobs={report['effective_jobs']} ({report['host_cpus']} CPUs)",
        ["jobs", "shard s", "run s", "total s", "groups", "fallbacks"],
        [
            [
                row["jobs"],
                row["shard_s"],
                row["run_s"],
                row["total_s"],
                row["fused_groups"],
                row["fused_fallback_boxes"],
            ]
        ],
    )
    print(f"bit-identical to the per-box digest: {report['bit_identical']}")


def _check(report: dict) -> None:
    leg = report["leg"]
    assert report["bit_identical"] is not False, (
        f"fused results diverged from the per-box digest: "
        f"{leg['digest']} != {report['per_box_digest']}"
    )
    assert leg["boxes_evaluated"] == report["boxes"]
    assert leg["fused_fallback_boxes"] == 0, (
        f"{leg['fused_fallback_boxes']} boxes fell back to the per-box "
        "path on a clean run — fusion is not covering the fleet"
    )
    assert leg["fused_groups"] > 0, "fused plane never engaged"


# --------------------------------------------------------------------- pytest
def test_fused_fleet_end_to_end(tmp_path):
    """Reduced-scale run; the full sweep is the script's default."""
    report = measure(200, DEFAULT_JOBS)
    (tmp_path / "BENCH_fused.json").write_text(json.dumps(report, indent=1))
    _print_report(report)
    assert report["bit_identical"]
    _check(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--boxes", type=int, default=DEFAULT_BOXES,
        help="fleet size (paper scale = 6000)",
    )
    parser.add_argument(
        "--jobs", type=int, default=DEFAULT_JOBS,
        help="worker processes for shard generation and the fleet run "
        "(capped at host CPUs)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_BOXES}-box smoke: asserts bit-identity and fused coverage",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="write the JSON report here (default BENCH_fused.json; "
        "--quick writes a report only when --out is given)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        payload = _run_leg(args.boxes, args.jobs)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return 0

    boxes = QUICK_BOXES if args.quick else args.boxes
    report = measure(boxes, args.jobs)
    if args.quick:
        report["quick"] = True
    _print_report(report)
    out = args.out or (None if args.quick else "BENCH_fused.json")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {out}")
    _check(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
