"""Span tracing of ``repro``'s layer boundaries, installed from outside.

The benchmark does not rely on the program's own ``repro.obs`` spans: it
wraps the public entry point of each layer (see :data:`BOUNDARIES`) in a
span recorder of its own.  Functions that other modules import by name
are replaced in every loaded ``repro`` module that holds them, so
``repro.core.stages.evaluate_box_resizing`` is traced just like
``repro.resizing.evaluate.evaluate_box_resizing``.

Each span records a name, start, end, parent span and run id, plus any
per-call counts (models fitted, bytes written, cache hits).  Spans are
buffered per process and appended to ``<out_dir>/spans-<pid>.jsonl``
whenever the process's outermost span ends, which covers pool workers
forked by ``FleetExecutor``: a worker drops the buffer and stack it
inherited, and its top-level spans name the parent-process span that was
open at fork time as their parent.  Once the run is over,
:func:`load_spans` and :func:`span_stats` merge every file and
:func:`layer_metrics` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: Root spans: the fleet drivers a workload calls.  Root self time is the
#: part of a run no layer boundary accounts for.
ROOTS = {
    "run_fleet_atm": ("repro.core.pipeline", "run_fleet_atm"),
    "run_fleet_ops": ("repro.tickets.ops.pipeline", "run_fleet_ops"),
    "run_online_fleet": ("repro.core.online", "run_online_fleet"),
}
ROOT_PREFIX = "root."


def _models(args, kwargs, result) -> dict:
    return {"models": 0 if result is None else len(args[1])}


def _warm_models(args, kwargs, result) -> dict:
    """Models fitted, and whether the batch started cold.

    The controller drops its warm state whenever a (re-)search installs a
    new spatial model, so a call without one is a full fit.
    """
    counts = _models(args, kwargs, result)
    counts["cold"] = int(result is not None and kwargs.get("warm") is None)
    return counts


def _fused_models(args, kwargs, result) -> dict:
    return {"models": 0 if result is None else sum(len(g) for g in args[1])}


def _signature_ratio(args, kwargs, result) -> dict:
    return {"signature_ratio": result.signature_ratio}


def _shard_bytes(args, kwargs, result) -> dict:
    return {"bytes": result.total_bytes}


def _incidents(args, kwargs, result) -> dict:
    return {"incidents": len(result)}


def _get_outcome(args, kwargs, result) -> dict:
    return {"hits": int(result is not None), "misses": int(result is None)}


def _put_bytes(args, kwargs, result) -> dict:
    store, key = args[0], args[1]
    path = store.path_for(key)
    return {"bytes": path.stat().st_size if path is not None and path.exists() else 0}


def _online_steps(args, kwargs, result) -> dict:
    return {"steps": args[0].n_steps}


#: ``span name -> (module, attribute path, counts(args, kwargs, result) | None)``.
#: A dotted attribute path names a method, patched on its class.
BOUNDARIES: Dict[str, tuple] = {
    "trace.render": ("repro.trace.scenario", "render_fleet", None),
    "store.shards.write": ("repro.store.shards", "generate_fleet_shards", _shard_bytes),
    "prediction.temporal.fit_fused": (
        "repro.prediction.registry", "fit_temporal_fleet_batch", _fused_models),
    "prediction.temporal.fit_batch": (
        "repro.prediction.registry", "fit_temporal_batch", _models),
    "prediction.temporal.fit_warm": (
        "repro.prediction.registry", "fit_temporal_batch_warm", _warm_models),
    "prediction.spatial.search": (
        "repro.prediction.spatial.signatures", "search_signature_set", _signature_ratio),
    "prediction.forecast": (
        "repro.prediction.combined", "SpatialTemporalPredictor.predict", None),
    "resizing.evaluate": ("repro.resizing.evaluate", "evaluate_box_resizing", None),
    "resizing.size": ("repro.resizing.evaluate", "resize_allocation", None),
    "store.artifacts.get": ("repro.store.artifacts", "ArtifactStore.get", _get_outcome),
    "store.artifacts.put": ("repro.store.artifacts", "ArtifactStore.put", _put_bytes),
    "tickets.monitor": ("repro.tickets.monitor", "tickets_for_box", None),
    "tickets.incidents": ("repro.tickets.incidents", "group_incidents", _incidents),
    "tickets.ops.route": ("repro.tickets.ops.route", "route_incidents", None),
    "tickets.ops.evidence": ("repro.tickets.ops.evidence", "build_evidence", None),
    "core.online.box_run": ("repro.core.online", "OnlineAtmController.run", _online_steps),
}


class Tracer:
    """Per-process span buffer with fork detection and JSONL flushing."""

    def __init__(self, out_dir: str, run_id: str) -> None:
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self._pid = os.getpid()
        self._stack: List[dict] = []
        self._buffer: List[dict] = []
        self._fork_parent: Optional[str] = None
        self._serial = 0
        #: Work items handed to ``FleetExecutor.imap`` in this process.
        self.items = 0

    def _adopt_process(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked pool worker: the inherited spans belong to the parent.
            self._fork_parent = self._stack[-1]["id"] if self._stack else None
            self._pid, self._stack, self._buffer = pid, [], []

    @contextmanager
    def span(self, name: str):
        self._adopt_process()
        self._serial += 1
        record = {
            "name": name,
            "id": f"{self.run_id}/{self._pid}:{self._serial}",
            "parent": self._stack[-1]["id"] if self._stack else self._fork_parent,
            "run": self.run_id,
            "pid": self._pid,
            "counts": {},
        }
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self._buffer.append(record)
            if not self._stack:
                self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self._pid}.jsonl", "a") as handle:
            for record in self._buffer:
                handle.write(json.dumps(record) + "\n")
        self._buffer = []


# ------------------------------------------------------------- installing
def _wrap(tracer: Tracer, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
            if counts is not None:
                record["counts"] = counts(args, kwargs, result)
            return result

    return traced


def _wrap_resolve_box(tracer: Tracer, fn: Callable) -> Callable:
    """Only mapping a shard is a store operation; in-RAM boxes pass through."""
    from repro.store.shards import BoxShardRef

    @functools.wraps(fn)
    def traced(item):
        if not isinstance(item, BoxShardRef):
            return fn(item)
        with tracer.span("store.shards.open"):
            return fn(item)

    return traced


def _wrap_imap(tracer: Tracer, fn: Callable) -> Callable:
    """Count items; time the parent blocked on a worker pool.

    A serial executor runs the work inline, so only ``jobs > 1`` calls
    get a span: each ``next()`` on the result stream is parent time spent
    waiting for workers.
    """

    @functools.wraps(fn)
    def traced(self, fn_, items, *common, **kwargs):
        work = list(items)
        tracer.items += len(work)
        stream = fn(self, fn_, work, *common, **kwargs)
        if self.jobs == 1 or len(work) <= 1:
            yield from stream
            return
        try:
            while True:
                with tracer.span("core.executor.wait"):
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                yield item
        finally:
            stream.close()

    return traced


def _patch(module: str, path: str, wrap: Callable) -> None:
    """Replace ``module.path`` with ``wrap(original)``.

    A dotted path names a method, replaced on its class.  A function is
    replaced in every loaded ``repro`` module that imported it by name.
    """
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(cls, attr, wrap(cls.__dict__[attr]))
        return
    original = getattr(importlib.import_module(module), path)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        in_repro = name == "repro" or name.startswith("repro.")
        if in_repro and getattr(mod, "__dict__", {}).get(path) is original:
            setattr(mod, path, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every boundary, the shard mapper, the executor and the roots."""
    importlib.import_module("repro.tickets.ops")
    importlib.import_module("repro.core.online")
    for name, (module, path, counts) in BOUNDARIES.items():
        _patch(module, path, functools.partial(_wrap, tracer, name, counts=counts))
    _patch("repro.store.shards", "resolve_box", functools.partial(_wrap_resolve_box, tracer))
    _patch("repro.core.executor", "FleetExecutor.imap", functools.partial(_wrap_imap, tracer))
    # A pool worker's outermost span: one flush per chunk, not per call.
    _patch("repro.core.executor", "_run_chunk",
           functools.partial(_wrap, tracer, "core.executor.chunk", counts=None))
    for root, (module, attr) in ROOTS.items():
        _patch(module, attr, functools.partial(_wrap, tracer, ROOT_PREFIX + root, counts=None))


# ------------------------------------------------------------ aggregating
def load_spans(out_dir: str) -> List[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def span_stats(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: calls, self time, durations and summed counts.

    Self time subtracts only children in the same process: a pool
    worker's spans overlap its parent's wait rather than nest inside it.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: Dict[str, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[parent["id"]] += s["end"] - s["start"]
    stats: Dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(
            s["name"], {"calls": 0, "self_s": 0.0, "durations": [], "counts": defaultdict(float)}
        )
        duration = s["end"] - s["start"]
        st["calls"] += 1
        st["self_s"] += duration - child_time[s["id"]]
        st["durations"].append(duration)
        for key, value in s["counts"].items():
            st["counts"][key] += value
    return stats


def percentile_ms(durations: List[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1000.0 if durations else 0.0


def attributed_pct(stats: Dict[str, dict]) -> float:
    """Share of root wall time covered by layer spans (root self time is not)."""
    total = sum(sum(st["durations"]) for n, st in stats.items() if n.startswith(ROOT_PREFIX))
    unattributed = sum(st["self_s"] for n, st in stats.items() if n.startswith(ROOT_PREFIX))
    return 100.0 * (total - unattributed) / total if total > 0 else 0.0


#: Boundaries that make enough calls per run for latency percentiles.
PERCENTILE_BOUNDARIES = (
    "store.shards.open", "prediction.temporal.fit_warm", "prediction.spatial.search",
    "prediction.forecast", "resizing.evaluate", "resizing.size", "store.artifacts.get",
    "store.artifacts.put", "tickets.monitor", "tickets.ops.route", "tickets.ops.evidence",
    "core.online.box_run",
)
#: Summed per-call counts reported as ``<boundary>.<count>``.
COUNTS = {
    "store.shards.write": ("bytes",),
    "prediction.temporal.fit_fused": ("models",),
    "prediction.temporal.fit_batch": ("models",),
    "prediction.temporal.fit_warm": ("models", "cold"),
    "store.artifacts.get": ("hits", "misses"),
    "store.artifacts.put": ("bytes",),
    "tickets.incidents": ("incidents",),
}


def layer_metrics(stats: Dict[str, dict], executor_items: int) -> Dict[str, float]:
    """Per-layer metric values from merged span statistics."""
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}}
    out: Dict[str, float] = {}
    for name in [*BOUNDARIES, "store.shards.open", "core.executor.chunk"]:
        st = stats.get(name, empty)
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.self_s"] = st["self_s"]
        if name in PERCENTILE_BOUNDARIES:
            out[f"{name}.p50_ms"] = percentile_ms(st["durations"], 50)
            out[f"{name}.p95_ms"] = percentile_ms(st["durations"], 95)
        for count in COUNTS.get(name, ()):
            out[f"{name}.{count}"] = st["counts"].get(count, 0)
    search = stats.get("prediction.spatial.search", empty)
    out["prediction.spatial.signature_ratio"] = (
        search["counts"].get("signature_ratio", 0.0) / search["calls"] if search["calls"] else 0.0
    )
    steps = stats.get("core.online.box_run", empty)["counts"].get("steps", 0)
    out["core.online.research_per_step"] = search["calls"] / steps if steps else 0.0
    wait = stats.get("core.executor.wait", empty)
    out["core.executor.wait_s"] = wait["self_s"]
    out["core.executor.items"] = executor_items
    out["trace.attributed_pct"] = attributed_pct(stats)
    out["trace.unattributed_s"] = sum(
        st["self_s"] for n, st in stats.items() if n.startswith(ROOT_PREFIX)
    )
    return out
