"""Parallel fleet execution engine.

Per-box ATM work is embarrassingly parallel: the paper deploys ATM *per
box*, and nothing a box's controller computes depends on any other box.
This module turns that structure into wall-clock speedup by fanning
per-box work across a :class:`~concurrent.futures.ProcessPoolExecutor`
with chunked scheduling, while keeping three guarantees:

1. **Deterministic aggregation.**  Results are always returned in the
   input (box) order, no matter which worker finished first.
2. **One result at every worker count.**  ``jobs=1`` (the default, also
   selectable via ``REPRO_JOBS=1``) runs the exact same chunk function
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

Failure contract: :meth:`FleetExecutor.imap` propagates an exception
and cancels the chunks not yet started (fail fast).  Nothing is retried
and nothing is timed out: every injected fault is deterministic, so a
retry would only fail again.  Per-box isolation is :func:`run_fleet`'s,
the one body of the four fleet drivers (``run_fleet_atm``,
``run_online_fleet``, ``evaluate_fleet_resizing``, ``run_fleet_ops``):
inside each chunk it maps every box (``resolve_box``), probes and saves
its artifact (:func:`resume_probe`), fires the ``box_error`` fault hook
and turns any exception raised for the box into a reported ``failed``
event, so a failing box costs only itself.

Scale: dispatch is *windowed*.  :meth:`FleetExecutor.imap` submits at
most a few chunks per worker at a time and yields results in input order
as their chunks land, so a 6,000-box fleet never has 6,000 task payloads
queued in the IPC pipe nor 6,000 results parked in the parent —
in-flight descriptors and the out-of-order buffer stay proportional to
the worker count, not the fleet.  :meth:`FleetExecutor.map` is ``imap``
applying a function item by item: one dispatch path.

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
from repro.core import faults, runtime
from repro.core.degrade import RUNG_FAILED, DegradationEvent, ErrorReport

__all__ = [
    "JOBS_ENV_VAR", "FleetExecutor", "resolve_jobs", "default_chunksize",
    "fleet_items", "per_box", "resume_probe", "run_fleet",
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


def _apply(fn: Callable[..., R], items: Sequence[Any], *common: Any) -> List[R]:
    """The chunk function of :meth:`FleetExecutor.map`: ``fn`` item by item."""
    return [fn(item, *common) for item in items]


def _chunk_results(
    chunk_fn: Callable[..., Iterable[R]], items: Sequence[Any], common: tuple
) -> Iterator[R]:
    """Yield ``chunk_fn(items, *common)``'s results, checking there is one per item."""
    count = 0
    for result in chunk_fn(items, *common):
        count += 1
        if count > len(items):
            break
        yield result
    if count != len(items):
        raise RuntimeError(
            f"chunk function returned {count} results for {len(items)} items"
        )


def _run_chunk(
    chunk_fn: Callable[..., Iterable[R]], items: Sequence[Any], common: tuple
) -> Tuple[List[R], dict]:
    """Worker entry point: one chunk, in order, plus the worker's metrics.

    The registry is reset first — fork-started workers inherit the
    parent's counters, and pool processes run many chunks back to back —
    so the returned snapshot covers exactly this chunk's work.
    """
    obs.reset_metrics()
    results = list(_chunk_results(chunk_fn, items, common))
    obs.record_peak_rss()
    return results, obs.metrics_snapshot()


class FleetExecutor:
    """Runs a chunk function over a fleet's items, serially or in parallel.

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

    def map(self, fn: Callable[..., R], items: Iterable[T], *common: Any) -> List[R]:
        """Return ``[fn(item, *common) for item in items]``, possibly in parallel.

        :meth:`imap` with a chunk function applying ``fn`` item by item,
        so it inherits its order and fail-fast semantics.
        """
        return list(self.imap(functools.partial(_apply, fn), items, *common))

    def imap(
        self, chunk_fn: Callable[..., Iterable[R]], items: Iterable[T], *common: Any
    ) -> Iterator[R]:
        """Yield the results of ``chunk_fn(chunk, *common)`` over every chunk, in input order.

        ``items`` are cut into ``chunksize`` slices; ``chunk_fn`` sees one
        slice at a time and must return one result per item, in order (the
        fused training plane batches a chunk's boxes into cross-box
        mega-fits this way).  The serial path applies it in-process over
        the same slices a parallel run would ship, so chunk boundaries
        match at every ``jobs``.  ``chunk_fn`` must be a module-level
        (picklable) callable when ``jobs > 1``.

        Results are yielded as their chunks complete, with at most
        ``workers * 4`` chunks in flight, so a caller that folds them
        incrementally (:func:`run_fleet`) holds O(workers) chunk results,
        not O(fleet).  Out-of-order completions are buffered until their
        predecessors land, so the caller always sees input order.  A
        worker exception propagates to the caller, and chunks not yet
        started are cancelled rather than run to completion (fail fast —
        a poisoned box should not cost the wall-clock of the whole fleet).
        """
        work = list(items)
        obs.inc("executor.items", len(work))
        chunk = self.chunksize or default_chunksize(len(work), self.jobs)
        chunks = [work[i : i + chunk] for i in range(0, len(work), chunk)]
        if self.jobs == 1 or len(work) <= 1:
            for part in chunks:
                yield from _chunk_results(chunk_fn, part, common)
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
                    future = pool.submit(_run_chunk, chunk_fn, part, common)
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
        cached = store.get(artifact)
        if cached is not None:
            obs.inc(f"{namespace}.resume.hits")
            return cached, _discard
    return None, functools.partial(store.put, artifact)


def per_box(fn: Callable[..., R]) -> Callable[..., Iterator[Any]]:
    """The chunk function running ``fn(box, *common)`` box by box, a raise as the box's outcome."""
    return functools.partial(_each_box, fn)


def _each_box(fn: Callable[..., R], boxes: Iterable[Any], *common: Any) -> Iterator[Any]:
    for box in boxes:
        try:
            yield fn(box, *common)
        except Exception as exc:
            yield exc


#: One box's final outcome: its result (``None`` = failed) and events.
BoxPair = Tuple[Any, List[DegradationEvent]]


def _run_boxes(
    items: Sequence[Any], namespace: str, chunk: Callable[..., Iterable[Any]],
    key: Optional[Callable[..., Any]], resume: bool, *common: Any,
) -> Iterator[BoxPair]:
    """The per-box contract over one chunk: one ``(result, events)`` pair per item, in order.

    ``chunk`` pulls the boxes lazily, so each box is mapped, probed and
    fault-hooked right before the chunk runs it; stored pairs never reach
    it.  Computed pairs are saved as they land.  A box that raises
    anywhere (or whose outcome is an exception) gets a ``failed`` pair,
    which is not saved: a resumed run tries the box again.
    """
    from repro.store.shards import resolve_box  # lazy: shards imports us

    done: dict = {}  # item position -> final pair
    handed: List[Tuple[int, str, Callable[[Any], None]]] = []

    def fail(pos: int, box_id: str, exc: Exception) -> None:
        obs.inc(f"{namespace}.boxes_failed")
        done[pos] = (None, [DegradationEvent(box_id, "run", RUNG_FAILED, repr(exc))])

    def boxes() -> Iterator[Any]:
        for pos, item in enumerate(items):
            try:
                box = resolve_box(item)
                cached, save = (
                    (None, _discard)
                    if key is None
                    else resume_probe(namespace, lambda: key(box, *common), resume)
                )
                if cached is None:
                    faults.inject_fault("box_error", item.box_id)
            except Exception as exc:
                fail(pos, item.box_id, exc)
                continue
            if cached is not None:
                done[pos] = cached
                continue
            handed.append((pos, item.box_id, save))
            yield box

    ready = 0
    for n, outcome in enumerate(chunk(boxes(), *common)):
        pos, box_id, save = handed[n]
        try:
            if isinstance(outcome, Exception):
                raise outcome
            save(outcome)
            done[pos] = outcome
        except Exception as exc:
            fail(pos, box_id, exc)
        while ready in done:
            yield done.pop(ready)
            ready += 1
    while ready in done:
        yield done.pop(ready)
        ready += 1


def run_fleet(
    namespace: str, chunk: Callable[..., Iterable[Any]], items: Sequence[Any],
    *common: Any, key: Optional[Callable[..., Any]], fold: Callable[[BoxPair], None],
    report: ErrorReport, fleet: Any, min_windows: int = 0, resume: bool = False,
    jobs: Optional[int] = None, chunksize: Optional[int] = None,
) -> None:
    """Run every box of a fleet under the one per-box contract; ``fold`` each pair in order.

    A driver hands over its ``namespace`` (the ``<namespace>.fleet`` span,
    the ``.boxes``, ``.boxes_failed``, ``.resume.hits`` and
    ``.fleets_empty`` counters), its artifact ``key(box, *common)`` (``None``: not
    resumable), its ``fold`` and its ``chunk(boxes, *common)``, which
    yields one pair or one exception per box.  ``items`` come from
    :func:`fleet_items` (filtered at ``min_windows``) and fan out through
    :meth:`FleetExecutor.imap`; :func:`_run_boxes` runs inside each chunk,
    in the worker when ``jobs > 1``.  ``fold`` sees each pair as its
    chunk lands, so at most O(workers) pairs are resident at once.  A
    box that fails outside its driver's ladder folds as ``(None,
    [event])``, the event at stage ``"run"``, rung ``failed``.

    With no eligible item, ``report`` gets one ``stage="fleet"`` event,
    rung ``failed``, and nothing runs.
    """
    obs.inc(f"{namespace}.boxes", len(items))
    if not items:
        reason = (
            f"no box in fleet {fleet.name!r} has the {min_windows} windows required"
            if min_windows
            else f"fleet {fleet.name!r} contains no boxes"
        )
        obs.inc(f"{namespace}.fleets_empty")
        report.add(DegradationEvent(f"fleet:{fleet.name}", "fleet", RUNG_FAILED, reason))
        return
    executor = FleetExecutor(jobs=jobs, chunksize=chunksize)
    with obs.span(f"{namespace}.fleet"):
        for pair in executor.imap(
            _run_boxes, items, namespace, chunk, key, resume, *common
        ):
            fold(pair)
