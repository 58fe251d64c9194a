"""One benchmark repetition, in a fresh process.

Run by ``run.py`` as ``python3 atmbench/child.py '<job json>'`` with
``PYTHONPATH`` pointing at the checkout's ``src`` and every BLAS/OpenMP
pool pinned to one thread.  The job names the workload, the input seed,
a private work directory, and whether to install the span tracer.

Prints one JSON object as its last line: timestamps on the system-wide
monotonic clock (so the parent can measure set-up from the moment it
spawned this process), the timed phase's wall and CPU seconds, peak RSS,
the host reference-kernel time, and the workload summary.
"""

import json
import os
import resource
import sys
import time


def host_reference_s() -> float:
    """Time a fixed pure-NumPy kernel: a host-speed yardstick, not a metric."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    v = rng.standard_normal(200_000)
    start = time.perf_counter()
    for _ in range(24):
        a = np.tanh(a @ a.T / 192.0)
        np.sort(v)
        np.cumsum(v)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest reaped child's."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(job: dict) -> dict:
    import_start = time.monotonic()
    import repro  # noqa: F401  (timed: import cost is part of set-up)
    import workloads

    import_s = time.monotonic() - import_start
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(job["trace_dir"], job["run_id"])
        tracing.install(tracer)

    setup, timed = workloads.WORKLOADS[job["workload"]]
    state = setup(job["seed"], job["workdir"], job["boxes"])
    setup_done = time.monotonic()

    ref_before = host_reference_s()
    cpu_start = cpu_seconds()
    timed_start = time.monotonic()
    results = timed(state)
    timed_s = time.monotonic() - timed_start
    cpu_s = cpu_seconds() - cpu_start
    ref_after = host_reference_s()

    out = {
        "setup_done": setup_done,
        "import_s": import_s,
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "host_ref_s": (ref_before + ref_after) / 2.0,
        "summary": workloads.summarize(job["workload"], state, results),
    }
    if tracer is not None:
        out["executor_items"] = tracer.items
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
