"""Lightweight pipeline observability: counters and span timers.

Every fleet-scale entry point (the Fig. 9/10 pipeline, the online rolling
controller, the resizing sweep, the parallel executor) records what it did
here — stage wall-clock spans, cache hits, degradation fallbacks,
tickets avoided — so a run can explain where its time and its tickets went
without a profiler.

Design constraints, in order:

1. **Near-zero overhead.**  A counter bump is one dict update; a span is
   two ``perf_counter`` calls.  Nothing is recorded per ticketing window,
   only per box / per stage, so the fig10 pipeline pays well under 1%.
2. **Process-safe aggregation.**  Each process owns a plain in-process
   registry; :func:`repro.core.executor._run_chunk` snapshots the worker's
   registry and the parent merges it, so ``jobs=N`` reports the same
   counters as ``jobs=1``.
3. **Optional.**  ``REPRO_METRICS=0`` turns every record call into a no-op
   for overhead-sensitive measurements.

The JSON snapshot schema (``repro.metrics/v1``), also emitted by the CLI's
``--metrics-json``::

    {
      "schema": "repro.metrics/v1",
      "counters": {"<name>": <float>},
      "gauges": {"<name>": <float>},
      "spans": {"<name>": {"count": <int>, "total_s": <float>, "max_s": <float>}}
    }

Counters add across worker snapshots; *gauges* are high-water marks and
merge by maximum (the one aggregation that makes sense for per-process
peak RSS or peak bytes-mapped: the fleet's memory footprint is the worst
process, not the sum of every process's worst moment).

Metric names are dotted ``<subsystem>.<event>`` strings, e.g.
``online.fallback.seasonal`` or ``pipeline.box_run``.
"""

from __future__ import annotations

import json
import resource as _resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = [
    "METRICS_ENV_VAR",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "SpanStat",
    "add_span",
    "gauge_max",
    "get_registry",
    "inc",
    "metrics_enabled",
    "metrics_snapshot",
    "merge_snapshot",
    "peak_rss_bytes",
    "record_peak_rss",
    "reset_metrics",
    "span",
    "write_metrics_json",
]

#: Set to ``0`` / ``false`` / ``off`` / ``no`` to disable all metric
#: recording (parsed by :mod:`repro.core.runtime`).
METRICS_ENV_VAR = "REPRO_METRICS"

#: Schema identifier stamped into every snapshot.
METRICS_SCHEMA = "repro.metrics/v1"


def metrics_enabled() -> bool:
    """Whether recording is on (default) — ``REPRO_METRICS=0`` disables."""
    # Lazy import: obs must stay importable without dragging in repro.core.
    from repro.core.runtime import metrics_enabled as _enabled

    return _enabled()


@dataclass
class SpanStat:
    """Accumulated timing of one named span."""

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds


@dataclass
class MetricsRegistry:
    """In-process metric store: float counters, max-gauges, span timers."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    spans: Dict[str, SpanStat] = field(default_factory=dict)

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (no-op when metrics are off)."""
        if not metrics_enabled():
            return
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher (no-op when off).

        Gauges are high-water marks: repeated observations keep the max,
        and worker snapshots merge by max rather than by sum.
        """
        if not metrics_enabled():
            return
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = float(value)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under span ``name`` (no-op when off)."""
        if not metrics_enabled():
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self._add_span(name, time.perf_counter() - start)

    def add_span(self, name: str, seconds: float) -> None:
        """Record one occurrence of span ``name`` that the caller timed.

        For work done in pieces, e.g. one box's share of a fit that many
        boxes ran together (no-op when metrics are off).
        """
        if metrics_enabled():
            self._add_span(name, seconds)

    def _add_span(self, name: str, seconds: float) -> None:
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = SpanStat()
        stat.add(seconds)

    def snapshot(self) -> dict:
        """JSON-able state under the ``repro.metrics/v1`` schema."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {
                name: {"count": s.count, "total_s": s.total_s, "max_s": s.max_s}
                for name, s in self.spans.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and span counts/totals add; gauges and span maxima take
        the max.  Used by the executor to aggregate worker-process metrics.
        """
        if snapshot.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"cannot merge snapshot with schema {snapshot.get('schema')!r}; "
                f"expected {METRICS_SCHEMA!r}"
            )
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in snapshot.get("gauges", {}).items():
            current = self.gauges.get(name)
            if current is None or float(value) > current:
                self.gauges[name] = float(value)
        for name, raw in snapshot.get("spans", {}).items():
            stat = self.spans.get(name)
            if stat is None:
                stat = self.spans[name] = SpanStat()
            stat.count += int(raw["count"])
            stat.total_s += float(raw["total_s"])
            stat.max_s = max(stat.max_s, float(raw["max_s"]))

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.spans.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def inc(name: str, value: float = 1.0) -> None:
    """Bump a counter on the default registry."""
    _REGISTRY.inc(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a high-water-mark gauge on the default registry."""
    _REGISTRY.gauge_max(name, value)


def peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize so
    the gauge is platform-independent.
    """
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


def record_peak_rss() -> int:
    """Record the current peak RSS under gauge ``proc.peak_rss_bytes``; returns the bytes."""
    peak = peak_rss_bytes()
    gauge_max("proc.peak_rss_bytes", float(peak))
    return peak


def span(name: str):
    """Context manager timing a block on the default registry."""
    return _REGISTRY.span(name)


def add_span(name: str, seconds: float) -> None:
    """Record a caller-timed span occurrence on the default registry."""
    _REGISTRY.add_span(name, seconds)


def metrics_snapshot() -> dict:
    """Snapshot of the default registry (``repro.metrics/v1``)."""
    return _REGISTRY.snapshot()


def merge_snapshot(snapshot: dict) -> None:
    """Merge a worker snapshot into the default registry."""
    _REGISTRY.merge(snapshot)


def reset_metrics() -> None:
    """Clear the default registry (start of a measured run)."""
    _REGISTRY.reset()


def write_metrics_json(path: str) -> None:
    """Write the default registry's snapshot to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_snapshot(), fh, indent=2, sort_keys=True)
        fh.write("\n")
