"""Parallel fleet execution engine.

Per-box ATM work is embarrassingly parallel: the paper deploys ATM *per
box*, and nothing a box's controller computes depends on any other box.
This module turns that structure into wall-clock speedup by fanning
per-box work across a :class:`~concurrent.futures.ProcessPoolExecutor`
with chunked scheduling, while keeping three guarantees:

1. **Deterministic aggregation.**  Results are always returned in the
   input (box) order, no matter which worker finished first.
2. **One result at every worker count.**  ``jobs=1`` (the default, also
   selectable via ``REPRO_JOBS=1``) runs the exact same per-item function
   in-process, in order, over the same chunks a pool would receive.  The
   per-box computations themselves are deterministic (every random draw
   is seeded per fit), so ``jobs=N`` produces numerically identical
   results; only wall-clock changes.
3. **Workers never regenerate input data.**  Items (e.g. ``BoxTrace``
   objects) are pickled and shipped to the workers; helpers that build
   fleets (``repro.trace.generator``, ``repro.benchhelpers.fleetcache``)
   are never invoked inside a worker.  See
   ``REPRO_FORBID_FLEET_GENERATION`` in :mod:`repro.trace.generator` for
   the enforcement hook the test suite uses.

The number of workers is resolved as: explicit ``jobs`` argument →
``REPRO_JOBS`` environment variable → 1 (serial).  ``jobs <= 0`` means
"all available cores".

Failure contract: a per-item exception propagates to the caller, and
chunks not yet started are cancelled (fail fast).  Nothing is retried
and nothing is timed out.  Per-box failure isolation belongs to the
drivers: the laddered ones (ATM, online, resizing) turn a failing box
into a reported degradation event before it reaches the executor, and
every injected fault is deterministic, so a retry would only fail again.

Scale: dispatch is *windowed*.  :meth:`FleetExecutor.imap` submits at
most a few chunks per worker at a time and yields results in input order
as their chunks land, so a 6,000-box fleet never has 6,000 task payloads
queued in the IPC pipe nor 6,000 results parked in the parent —
in-flight descriptors and the out-of-order buffer stay proportional to
the worker count, not the fleet.  :meth:`FleetExecutor.map` is
``list(imap(...))``: one dispatch path, two consumption styles.

Fleet drivers (``run_fleet_atm``, ``run_online_fleet``,
``evaluate_fleet_resizing``, ``run_fleet_ops``) all run through
:func:`run_fleet`, take their items from :func:`fleet_items` and, when
resumable, touch the store only via :func:`resume_probe`.

Worker observability: each chunk ships its worker-process metrics
snapshot back with its results, and the parent merges them into the
session registry — ``jobs=N`` reports the same :mod:`repro.obs` counters
as ``jobs=1``.  Every chunk also records its worker's peak RSS under the
``proc.peak_rss_bytes`` gauge (merged by max), so ``--metrics-json``
reports the fleet's true memory high-water mark across all processes.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.core import runtime
from repro.core.degrade import RUNG_FAILED, DegradationEvent, ErrorReport

__all__ = [
    "JOBS_ENV_VAR", "FleetExecutor", "resolve_jobs", "default_chunksize",
    "fleet_items", "resume_probe", "run_fleet",
]

#: In-flight chunks per worker for windowed dispatch: deep enough that no
#: worker ever idles waiting for the parent, shallow enough that pending
#: payloads and buffered results stay O(workers), not O(fleet).
_INFLIGHT_CHUNKS_PER_WORKER = 4

#: Environment variable consulted when no explicit ``jobs`` is given
#: (parsed by :mod:`repro.core.runtime`).
JOBS_ENV_VAR = runtime.JOBS_ENV_VAR

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument → ``REPRO_JOBS`` → 1 (serial).

    ``jobs <= 0`` (argument or environment) selects all available cores.
    """
    if jobs is None:
        env = runtime.env_jobs()
        jobs = 1 if env is None else env
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def default_chunksize(n_items: int, jobs: int) -> int:
    """Chunk size targeting ~4 chunks per worker.

    Small enough that a slow box cannot straggle a whole worker's share,
    large enough that per-task pickling overhead stays amortized.
    """
    if n_items <= 0:
        return 1
    return max(1, math.ceil(n_items / (max(1, jobs) * 4)))


def _run_chunk_items(
    chunk_fn: Callable[..., Sequence[R]], items: Sequence[Any], common: tuple
) -> List[R]:
    """Apply a whole-chunk function, checking it returned one result per item.

    ``chunk_fn`` sees all items of the chunk together (the fused training
    plane gathers cross-box mega-batches this way) and must return one
    result per item, in input order.
    """
    results = list(chunk_fn(items, *common))
    if len(results) != len(items):
        raise RuntimeError(
            f"chunk function returned {len(results)} results for "
            f"{len(items)} items"
        )
    return results


def _run_chunk(
    fn: Callable[..., R],
    items: Sequence[Any],
    common: tuple,
    chunk_fn: Optional[Callable[..., Sequence[R]]] = None,
) -> Tuple[List[R], dict]:
    """Worker entry point: one chunk, in order, plus the worker's metrics.

    The registry is reset first — fork-started workers inherit the
    parent's counters, and pool processes run many chunks back to back —
    so the returned snapshot covers exactly this chunk's work.
    """
    obs.reset_metrics()
    if chunk_fn is not None:
        results = _run_chunk_items(chunk_fn, items, common)
    else:
        results = [fn(item, *common) for item in items]
    obs.record_peak_rss()
    return results, obs.metrics_snapshot()


class FleetExecutor:
    """Maps a per-item function over a fleet's boxes, serially or in parallel.

    Parameters
    ----------
    jobs:
        Worker count; resolved through :func:`resolve_jobs` (``None`` reads
        ``REPRO_JOBS``, defaulting to 1 = serial).
    chunksize:
        Items per scheduled task; defaults to :func:`default_chunksize`.

    Workers start by ``fork`` where the platform offers it (cheap, and
    they inherit the loaded modules), by the platform default elsewhere.
    """

    def __init__(
        self, jobs: Optional[int] = None, chunksize: Optional[int] = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.chunksize = chunksize

    def map(
        self,
        fn: Callable[..., R],
        items: Iterable[T],
        *common: Any,
        chunk_fn: Optional[Callable[..., Sequence[R]]] = None,
    ) -> List[R]:
        """Return ``[fn(item, *common) for item in items]``, possibly in parallel.

        The list form of :meth:`imap`, which documents the semantics.
        """
        return list(self.imap(fn, items, *common, chunk_fn=chunk_fn))

    def imap(
        self,
        fn: Callable[..., R],
        items: Iterable[T],
        *common: Any,
        chunk_fn: Optional[Callable[..., Sequence[R]]] = None,
    ) -> Iterator[R]:
        """Yield ``fn(item, *common)`` for each item, in input order.

        ``fn`` must be a module-level (picklable) callable when ``jobs > 1``.
        Results are yielded as their chunks complete, with at most
        ``workers * 4`` chunks in flight, so a caller that folds them
        incrementally (:func:`run_fleet`) holds O(workers) chunk results,
        not O(fleet).  Out-of-order completions are buffered until their
        predecessors land, so the caller always sees input order.  A
        worker exception propagates to the caller, and chunks not yet
        started are cancelled rather than run to completion (fail fast —
        a poisoned box should not cost the wall-clock of the whole fleet).

        ``chunk_fn``, when given, replaces the per-item loop *inside each
        chunk*: it is called as ``chunk_fn(chunk_items, *common)`` and
        must return one result per item, in order (the fused training
        plane batches a chunk's boxes into cross-box mega-fits this way).
        The serial path applies it over the same ``chunksize`` slices a
        parallel run would ship, so chunk boundaries match at every
        ``jobs``.
        """
        work = list(items)
        obs.inc("executor.items", len(work))
        chunk = self.chunksize or default_chunksize(len(work), self.jobs)
        chunks = [work[i : i + chunk] for i in range(0, len(work), chunk)]
        if self.jobs == 1 or len(work) <= 1:
            if chunk_fn is None:
                for item in work:
                    yield fn(item, *common)
            else:
                for part in chunks:
                    yield from _run_chunk_items(chunk_fn, part, common)
            obs.record_peak_rss()
            return

        workers = min(self.jobs, len(chunks))
        obs.inc("executor.chunks", len(chunks))
        context = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        window = workers * _INFLIGHT_CHUNKS_PER_WORKER
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        pending: dict = {}  # future -> chunk index
        buffered: dict = {}  # chunk index -> chunk results
        next_submit = 0
        next_yield = 0
        try:
            while next_yield < len(chunks):
                while next_submit < len(chunks) and len(pending) < window:
                    part = chunks[next_submit]
                    future = pool.submit(_run_chunk, fn, part, common, chunk_fn)
                    pending[future] = next_submit
                    next_submit += 1
                while next_yield in buffered:
                    for item in buffered.pop(next_yield):
                        yield item
                    next_yield += 1
                if next_yield >= len(chunks):
                    break
                for future in wait(pending, return_when=FIRST_COMPLETED).done:
                    index = pending.pop(future)
                    part_results, worker_metrics = future.result()
                    buffered[index] = part_results
                    obs.merge_snapshot(worker_metrics)
        except BaseException:
            for future in pending:
                future.cancel()
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        obs.record_peak_rss()


def fleet_items(fleet, min_windows: int = 0) -> list:
    """The work items of every box with at least ``min_windows`` windows.

    A :class:`~repro.store.shards.ShardedFleet` contributes its shard
    descriptors, filtered on the manifest alone: no shard is opened in
    the parent, and each worker maps its boxes through ``resolve_box``.
    An in-RAM fleet contributes its boxes themselves.
    """
    from repro.store.shards import ShardedFleet  # lazy: shards imports us

    boxes = fleet.box_refs() if isinstance(fleet, ShardedFleet) else fleet
    return [box for box in boxes if box.n_windows >= min_windows]


def _discard(value: Any) -> None:
    """The ``save`` of a store probe that must not write."""


def resume_probe(
    namespace: str, key: Callable[[], Any], resume: bool
) -> Tuple[Optional[Any], Callable[[Any], None]]:
    """A per-box unit's one touch of its resumable store artifact.

    Returns ``(cached, save)``.  Without a persistent store nothing is
    read or written: ``cached`` is ``None`` and ``save`` discards.  With
    one, ``key()`` names the box's artifact; under ``resume`` a stored
    value comes back as ``cached`` (counted as
    ``<namespace>.resume.hits``), and otherwise ``save(value)``
    materializes the freshly computed value under that key, so an
    interrupted fleet run leaves every finished box on disk.
    """
    from repro.store import default_store  # lazy: the store imports core

    store = default_store()
    if not store.persistent:
        return None, _discard
    artifact = key()
    if resume:
        cached = store.get(artifact, memory=False)
        if cached is not None:
            obs.inc(f"{namespace}.resume.hits")
            return cached, _discard
    return None, functools.partial(store.put, artifact, memory=False)


def run_fleet(
    unit: Optional[Callable[..., R]], items: Sequence[Any], *common: Any,
    fold: Callable[[R], None], span: str, fleet: Any, min_windows: int = 0,
    report: Optional[ErrorReport] = None, jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    chunk_fn: Optional[Callable[..., Sequence[R]]] = None,
) -> None:
    """Run ``unit(item, *common)`` on every item; ``fold`` each result in order.

    The shared body of the fleet drivers: ``items`` come from
    :func:`fleet_items` (filtered at ``min_windows``), the fan-out is
    :meth:`FleetExecutor.imap` under the driver's ``span``, and ``fold``
    sees each box's result as its chunk lands, so at most O(workers)
    results are resident at once.  A driver whose unit of work is a whole
    chunk (ATM) passes ``unit=None`` and its ``chunk_fn``.

    The empty-fleet rule: with no eligible item, a laddered driver (ATM,
    online, resizing) passes its aggregate's ``report`` and gets one
    ``stage="fleet"`` event, rung ``failed`` (counted as
    ``<namespace>.fleets_empty``); ``run_fleet_ops`` passes
    ``report=None`` and gets a :class:`ValueError` naming the fleet.
    """
    if not items:
        reason = (
            f"no box in fleet {fleet.name!r} has the {min_windows} windows required"
            if min_windows
            else f"fleet {fleet.name!r} contains no boxes"
        )
        if report is None:
            raise ValueError(reason)
        obs.inc(f"{span.split('.')[0]}.fleets_empty")
        report.add(DegradationEvent(f"fleet:{fleet.name}", "fleet", RUNG_FAILED, reason))
        return
    executor = FleetExecutor(jobs=jobs, chunksize=chunksize)
    with obs.span(span):
        for result in executor.imap(unit, items, *common, chunk_fn=chunk_fn):
            fold(result)
