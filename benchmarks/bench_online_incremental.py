"""Online control plane — incremental vs cold-refit step cost.

The rolling controller's step cost is dominated by refreshing the
predictor.  The incremental machinery replaces the per-step signature
search + cold MLP training with a drift check plus a warm-started
temporal refit, so this bench measures exactly that substitution:

* a **cold** run (``refit_every_steps=1``): every step re-runs the full
  search, which resets the warm chain, so every fit is cold — per-step
  cost read from the ``online.fit`` span (the cadence cap is always due,
  so the drift score is never consulted);
* an **incremental** run (cadence cap out of reach): one initial fit,
  then drift-checked warm temporal refits — per-step cost
  read from the ``online.refit_temporal`` + ``online.drift_check``
  spans.

Both spans count once per box-step; when a chunk's boxes share a step's
fused fit, each box-step's span holds an equal share of it.  At the
default sizes (1 box in ``--quick``, 3 in the full run) every chunk holds
one box, so these are one-box refits.  With ``--boxes 5`` the serial
runs step 2-box chunks and the ``jobs=2`` run 1-box chunks, so the
parity check below compares fused cross-box refits with one-box ones.
Each run also reports the kernel's work: ``mlp.steps`` (tensor steps)
and ``mlp.step_models`` (models summed over those steps).

The incremental step must be ≥ 5x cheaper (≥ 2x in ``--quick``), the
ticket-reduction percentage must stay within tolerance of the cold
run's, no step may degrade below the primary rung, and a ``jobs=2``
incremental run must be bit-identical to the serial one (steps and
degradation events).

Results land in ``BENCH_online.json``.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_online_incremental.py [--quick]
        [--boxes N] [--days D] [--output PATH]
"""

import argparse
import hashlib
import json
import time
from pathlib import Path

import pytest

from repro import obs
from repro.benchhelpers import print_table
from repro.core.config import AtmConfig
from repro.core.online import run_online_fleet
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.trace.generator import FleetConfig, generate_fleet

pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_online.json"

TARGET_STEP_SPEEDUP = 5.0
QUICK_STEP_SPEEDUP = 2.0
REDUCTION_TOLERANCE_PP = 5.0
NEVER = 10**6  # cadence cap far beyond any bench trace


def _fleet(n_boxes: int, days: int):
    return generate_fleet(
        FleetConfig(n_boxes=n_boxes, days=days, seed=41), name="bench-online"
    )


def _config() -> AtmConfig:
    return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="neural")


def _digest(result) -> str:
    """Byte-exact digest of a fleet run: every step plus every event."""
    payload = repr(
        (
            [
                (
                    box_id,
                    [
                        (
                            s.day_index,
                            s.resource.value,
                            s.ape,
                            s.tickets_static,
                            s.tickets_atm,
                            s.allocation.tobytes(),
                            s.predicted_mean,
                            s.rung,
                        )
                        for s in r.steps
                    ],
                )
                for box_id, r in sorted(result.items())
            ],
            [(e.box_id, e.stage, e.rung, e.reason, e.step) for e in result.report.events],
        )
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _timed_run(fleet, config, refit_every: int) -> dict:
    obs.reset_metrics()
    start = time.perf_counter()
    result = run_online_fleet(fleet, config, refit_every_steps=refit_every, jobs=1)
    seconds = time.perf_counter() - start
    snap = obs.metrics_snapshot()
    spans, counters = snap["spans"], snap["counters"]
    fit = spans.get("online.fit", {"count": 0, "total_s": 0.0})
    refit_temporal = spans.get("online.refit_temporal", {"count": 0, "total_s": 0.0})
    drift_check = spans.get("online.drift_check", {"count": 0, "total_s": 0.0})
    return {
        "seconds": seconds,
        "digest": _digest(result),
        "reduction_percent": result.reduction_percent(),
        "tickets_static": result.total_tickets(static=True),
        "tickets_atm": result.total_tickets(),
        "degradation_events": len(result.report.events),
        "full_fits": int(fit["count"]),
        "full_fit_seconds": fit["total_s"],
        "incremental_steps": int(refit_temporal["count"]),
        "incremental_seconds": refit_temporal["total_s"] + drift_check["total_s"],
        "drift_skips": int(counters.get("online.drift_skips", 0)),
        "drift_refits": int(counters.get("online.refit.drift", 0)),
        "cap_refits": int(counters.get("online.refit.cap", 0)),
        "warm_models": int(counters.get("warm.models_warm", 0)),
        "guard_cold_refits": int(counters.get("warm.guard_cold_refits", 0)),
        # Kernel work: tensor steps, and models summed over those steps.
        "mlp_steps": int(counters.get("mlp.steps", 0)),
        "mlp_step_models": int(counters.get("mlp.step_models", 0)),
    }


def run_bench(n_boxes: int, days: int, enforce: bool, quick: bool = False) -> dict:
    fleet = _fleet(n_boxes, days)
    config = _config()
    cold = _timed_run(fleet, config, refit_every=1)
    incremental = _timed_run(fleet, config, refit_every=NEVER)

    obs.reset_metrics()
    parallel_digest = _digest(
        run_online_fleet(fleet, config, refit_every_steps=NEVER, jobs=2)
    )
    obs.reset_metrics()

    # Per-step predictor-refresh cost: the full search+fit of a cold step
    # vs the drift check + warm temporal refit of an incremental step.
    cold_step = cold["full_fit_seconds"] / max(1, cold["full_fits"])
    incr_step = incremental["incremental_seconds"] / max(
        1, incremental["incremental_steps"]
    )
    speedup = cold_step / incr_step if incr_step > 0 else float("inf")
    checked = (
        incremental["drift_skips"]
        + incremental["drift_refits"]
        + incremental["cap_refits"]
    )
    report = {
        "bench": "online_incremental",
        "fleet": f"bench-online-{n_boxes}x{days}d (seed 41)",
        "temporal_model": "neural",
        "cold": cold,
        "incremental": incremental,
        "per_step": {
            "cold_fit_seconds": cold_step,
            "incremental_seconds": incr_step,
            "speedup": speedup,
        },
        "drift_gate": {
            "skip_rate": incremental["drift_skips"] / checked if checked else 0.0,
            "skips": incremental["drift_skips"],
            "early_refits": incremental["drift_refits"],
            "cap_refits": incremental["cap_refits"],
        },
        "reduction_delta_pp": abs(
            cold["reduction_percent"] - incremental["reduction_percent"]
        ),
        "parallel_identical": incremental["digest"] == parallel_digest,
    }

    assert report["parallel_identical"], "jobs=2 incremental run changed results"
    assert cold["degradation_events"] == 0, "cold run degraded"
    assert incremental["degradation_events"] == 0, "incremental run degraded"
    assert incremental["warm_models"] > 0, "warm chain never engaged"
    assert cold["tickets_static"] > 0, "trace produced no tickets to reduce"
    assert report["reduction_delta_pp"] <= REDUCTION_TOLERANCE_PP, (
        f"reduction drifted {report['reduction_delta_pp']:.2f}pp "
        f"(tolerance {REDUCTION_TOLERANCE_PP}pp)"
    )
    floor = QUICK_STEP_SPEEDUP if quick else TARGET_STEP_SPEEDUP
    if enforce:
        assert speedup >= floor, (
            f"expected incremental step >= {floor}x cheaper, "
            f"measured {speedup:.2f}x"
        )
    return report


def _print_report(report: dict) -> None:
    print_table(
        f"Online steps — cold vs incremental ({report['fleet']}, "
        f"{report['temporal_model']})",
        ["run", "wall s", "full fits", "incr steps", "reduction %", "degraded"],
        [
            [
                name,
                report[name]["seconds"],
                report[name]["full_fits"],
                report[name]["incremental_steps"],
                report[name]["reduction_percent"],
                report[name]["degradation_events"],
            ]
            for name in ("cold", "incremental")
        ],
    )
    per_step = report["per_step"]
    gate = report["drift_gate"]
    print(
        f"per-step refresh: cold {per_step['cold_fit_seconds']*1e3:.1f}ms vs "
        f"incremental {per_step['incremental_seconds']*1e3:.1f}ms "
        f"({per_step['speedup']:.1f}x), "
        f"drift-gate skip rate {gate['skip_rate']:.0%} "
        f"({gate['early_refits']} early, {gate['cap_refits']} cap refits), "
        f"reduction delta {report['reduction_delta_pp']:.2f}pp, "
        f"parallel identical: {report['parallel_identical']}"
    )
    print(
        f"result digests: cold {report['cold']['digest']}, "
        f"incremental {report['incremental']['digest']}"
    )


def test_online_incremental_speedup(benchmark):
    report = benchmark.pedantic(
        lambda: run_bench(n_boxes=1, days=8, enforce=True, quick=True),
        rounds=1,
        iterations=1,
    )
    _print_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single-box smoke run (seconds); enforces a 2x per-step floor "
        "and all parity checks, skips the JSON artifact",
    )
    parser.add_argument("--boxes", type=int, default=None, help="fleet size")
    parser.add_argument("--days", type=int, default=None, help="trace length")
    parser.add_argument(
        "--output", type=str, default=str(RESULTS_PATH),
        help="result JSON path (full mode only)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        report = run_bench(
            n_boxes=args.boxes or 1, days=args.days or 8, enforce=True, quick=True
        )
        _print_report(report)
        print("quick mode: parity checks passed (2x floor enforced)")
        return 0
    report = run_bench(
        n_boxes=args.boxes or 3, days=args.days or 10, enforce=True
    )
    _print_report(report)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
