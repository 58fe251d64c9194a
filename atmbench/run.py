"""ATM benchmark: three workloads, end-to-end metrics, and a traced layer run.

Usage, from the root of a checkout::

    python3 atmbench/run.py --workload fleet-neural --seed 1 --seconds 30 --trace 0
    python3 atmbench/run.py --workload all --seconds 30      # every workload, as a table

Workloads (``workloads.py``): ``fleet-neural``, ``daily-cycle-sharded``
and ``online-regime-shift``.  A run makes ``round(seconds / nominal)``
repetitions; repetition ``k`` renders its own fleet from a seed derived
from ``(--seed, k)`` and runs in a fresh child process (``child.py``)
with BLAS/OpenMP pinned to one thread, fresh work directories, and no
``REPRO_*`` settings except ``REPRO_STORE`` for ``daily-cycle-sharded``.

``--trace 0`` reports the end-to-end metrics over the repetitions: the
timings (set-up, throughput, CPU seconds) and peak RSS are medians of
per-repetition values, so one slow repetition moves none of them; the
ticket and APE figures come from totals summed over the repetitions'
fleets.  ``--trace 1`` alternates untraced and traced repetitions on the
same inputs and reports the per-layer metrics of the traced ones (summed
over them) plus the tracing overhead.

Every repetition's outputs are checked (``workloads.py``); at the default
seed the result digests must also equal those in ``spec.json``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Every thread pool a NumPy/BLAS build may start, pinned to one thread.
THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
}
#: Per-child wall-clock limit; a run must end well within three minutes.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "box_days_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ticket_reduction_pct": "%",
    "mean_ape_pct": "%",
    "healthy_box_pct": "%",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("signature_ratio", "research_per_step")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def derive_seed(seed: int, rep: int) -> int:
    """Fleet seed of repetition ``rep`` of a run started with ``seed``."""
    digest = hashlib.blake2b(f"atmbench:{seed}:{rep}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def n_reps(seconds: float) -> int:
    return max(1, round(seconds / workloads.NOMINAL_REP_S))


def child_env(workload: str, workdir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    if workload == "daily-cycle-sharded":
        env["REPRO_STORE"] = str(workdir / "store")
    return env


def run_child(job: dict) -> dict:
    """Run one repetition in a fresh process; add its set-up time."""
    workdir = Path(job["workdir"])
    workdir.mkdir(parents=True)
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
            cwd=ROOT, env=child_env(job["workload"], workdir),
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"repetition timed out after {CHILD_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            raise RuntimeError(f"repetition exited with code {proc.returncode}")
        result = json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = result["setup_done"] - spawned
    return result


def check_digests(workload: str, seed: int, rep: int, digests: dict, spec: dict) -> List[str]:
    """At the default seed, compare a repetition's digests with ``spec.json``."""
    if seed != workloads.DEFAULT_SEED:
        return []
    expected = spec["digests"][workload]
    if rep >= len(expected):
        return []
    if digests != expected[rep]:
        return [f"rep {rep}: digests {digests} != recorded {expected[rep]}"]
    return []


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """Medians of per-repetition timings; totals for the quality ratios."""
    s = [r["summary"] for r in reps]
    static = sum(x["tickets_static"] for x in s)
    ape_n = sum(x["ape_count"] for x in s)
    boxes = sum(x["boxes"] for x in s)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "box_days_per_s": statistics.median(
            r["summary"]["box_days"] / r["timed_s"] for r in reps
        ),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ticket_reduction_pct": (
            100.0 * (static - sum(x["tickets_atm"] for x in s)) / static if static else 0.0
        ),
        "mean_ape_pct": sum(x["ape_sum"] for x in s) / ape_n if ape_n else 0.0,
        "healthy_box_pct": 100.0 * (1.0 - sum(x["degraded_boxes"] for x in s) / boxes),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 boxes: int, work_root: Path) -> dict:
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    reps = n_reps(seconds)
    plain: List[dict] = []
    traced: List[dict] = []
    problems: List[str] = []
    trace_dir = str(work_root / "spans")
    for rep in range(max(1, reps // 2) if trace else reps):
        for traced_rep in (False, True) if trace else (False,):
            tag = "traced" if traced_rep else "plain"
            result = run_child({
                "workload": workload, "seed": derive_seed(seed, rep), "boxes": boxes,
                "trace": traced_rep, "trace_dir": trace_dir,
                "run_id": f"{workload}/{seed}/{rep}",
                "workdir": str(work_root / f"{tag}-{rep}"),
            })
            summary = result["summary"]
            problems += [f"rep {rep}: {p}" for p in summary["problems"]]
            problems += check_digests(workload, seed, rep, summary["digests"], spec)
            if traced_rep and summary["digests"] != plain[-1]["summary"]["digests"]:
                problems.append(f"rep {rep}: tracing changed the result digests")
            (traced if traced_rep else plain).append(result)

    measured = traced if trace else plain
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "reps": len(measured),
        "boxes_per_rep": boxes, "nproc": os.cpu_count(), "jobs": workloads.JOBS[workload],
        "threads": THREAD_ENV,
        "host_ref_s": [r["host_ref_s"] for r in plain + traced],
        "timed_s": [r["timed_s"] for r in plain + traced],
        "digests": [r["summary"]["digests"] for r in measured],
        "problems": problems,
    }
    if trace:
        stats = tracing.span_stats(tracing.load_spans(trace_dir))
        values = tracing.layer_metrics(stats, sum(r["executor_items"] for r in traced))
        values["setup.import_s"] = sum(r["import_s"] for r in traced)
        values["host.ref_s"] = statistics.median(info["host_ref_s"])
        values["trace.reps"] = len(traced)
        untraced_rate = end_to_end(plain)["box_days_per_s"]
        values["trace.overhead_pct"] = 100.0 * (
            untraced_rate / end_to_end(traced)["box_days_per_s"] - 1.0
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(plain).items()
        }
    attempted = sum(r["summary"]["boxes"] for r in measured)
    failed = sum(r["summary"]["degraded_boxes"] for r in measured)
    return {
        "info": info,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<44} {entry['value']:>14.4f} {entry['unit']}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".atmbench_work" / str(os.getpid())
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), workloads.BOXES[name],
                work_root / name,
            )
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.parent.rmdir()
    for name, outcome in outcomes.items():
        print(json.dumps({"run_info": outcome["info"]}))
        if args.workload == "all":
            print_table(name, outcome["result"])
    if args.workload != "all":
        print(json.dumps(outcomes[names[0]]["result"]))
        return 0
    results = [o["result"] for o in outcomes.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}/{k}": v for n, o in outcomes.items()
                    for k, v in o["result"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
