"""Memory-mapped per-box trace shards: the fleet-scale on-disk trace tier.

The paper's evaluation runs on 6,000 boxes / 80,000 VMs.  Holding that
fleet as in-RAM ``BoxTrace`` objects — and round-tripping every box
through pickle to pool workers — is what capped the benchmarks at a few
dozen boxes.  This module is the store's trace tier:

* **One shard per box.**  A box's full usage matrix (``(2M, T)`` float64,
  CPU rows then RAM rows, exactly :attr:`BoxTrace.usage`) is
  written as a plain ``.npy`` file — the v1.0 header ``np.save`` writes,
  then the raw C-order matrix — content-addressed by the same BLAKE2b
  ``data_fingerprint`` the artifact store uses::

      <root>/shards/<fp[:2]>/<fp>.npy

  Writes go through the artifact store's atomic writer (temp file +
  ``os.replace``) and are idempotent — a shard that already exists
  under its fingerprint is never rewritten.

* **A JSON manifest** (``<root>/manifest.json``) holding everything else
  a box needs — ids, capacities, interval — so eligibility checks, fleet
  summaries, and work scheduling never touch the mapped data at all.

* **Zero-copy box views.**  :func:`open_box` maps a shard once, checks
  its first bytes against the header the manifest's shape implies and
  its length against the matrix size, and builds a :class:`BoxTrace`
  whose usage matrix *is the mapping*: the constructor's range check
  reads the mapped pages but copies no sample, and dropping the view
  unmaps it.  A worker processing one box therefore holds one box's
  pages, not the fleet's.

* **Descriptor dispatch.**  :class:`BoxShardRef` is the tiny picklable
  handle the executor ships to workers instead of trace data; the worker
  resolves it via :func:`resolve_box`.

Opening a shard marks the *shard tier active* for the process (see
:func:`repro.trace.model.mark_shard_tier_active`): with
``REPRO_FORBID_FLEET_GENERATION`` set, constructing a full in-RAM
``FleetTrace`` then raises — the guard that historically proved workers
never regenerate fleets now also proves they never materialize one.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.store.artifacts import _write_atomic
from repro.store.fingerprint import data_fingerprint
from repro.trace.model import BoxTrace, FleetTrace, mark_shard_tier_active

__all__ = [
    "MANIFEST_NAME",
    "SHARDS_SCHEMA",
    "BoxShardMeta",
    "BoxShardRef",
    "ShardManifest",
    "ShardedFleet",
    "generate_fleet_shards",
    "load_fleet_shards",
    "open_box",
    "resolve_box",
    "write_box_shard",
    "write_fleet_shards",
]

#: Schema tag stamped into every manifest; bump on layout changes so stale
#: shard stores are rejected loudly instead of misread.
SHARDS_SCHEMA = "repro.shards/v1"

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class BoxShardMeta:
    """Everything about one box *except* its usage samples.

    Lives in the manifest (and travels inside :class:`BoxShardRef`), so
    schedulers and eligibility filters never open the mapped data.
    """

    box_id: str
    fingerprint: str
    path: str  # shard file, relative to the store root
    cpu_capacity: float
    ram_capacity: float
    vm_ids: Tuple[str, ...]
    vm_cpu_capacities: Tuple[float, ...]
    vm_ram_capacities: Tuple[float, ...]
    n_windows: int
    interval_minutes: int
    #: Scenario fingerprint of the rendering spec (or external-trace hash);
    #: ``None`` for legacy stores and the identity ``paper-fig2`` profile.
    scenario_fp: Optional[str] = None

    @property
    def n_vms(self) -> int:
        return len(self.vm_ids)

    @property
    def nbytes(self) -> int:
        """Size of the shard's usage matrix in bytes (float64)."""
        return 2 * self.n_vms * self.n_windows * 8

    @staticmethod
    def from_dict(raw: dict) -> "BoxShardMeta":
        scenario_fp = raw.get("scenario_fp")
        return BoxShardMeta(
            box_id=str(raw["box_id"]),
            fingerprint=str(raw["fingerprint"]),
            path=str(raw["path"]),
            cpu_capacity=float(raw["cpu_capacity"]),
            ram_capacity=float(raw["ram_capacity"]),
            vm_ids=tuple(str(v) for v in raw["vm_ids"]),
            vm_cpu_capacities=tuple(float(v) for v in raw["vm_cpu_capacities"]),
            vm_ram_capacities=tuple(float(v) for v in raw["vm_ram_capacities"]),
            n_windows=int(raw["n_windows"]),
            interval_minutes=int(raw["interval_minutes"]),
            scenario_fp=None if scenario_fp is None else str(scenario_fp),
        )


@dataclass(frozen=True)
class BoxShardRef:
    """Picklable descriptor of one sharded box: what workers receive.

    A ref is a few hundred bytes no matter how long the trace is — the
    executor ships refs, the worker maps the shard locally.
    """

    root: str
    meta: BoxShardMeta

    @property
    def box_id(self) -> str:
        return self.meta.box_id

    @property
    def n_windows(self) -> int:
        return self.meta.n_windows

    @property
    def n_vms(self) -> int:
        return self.meta.n_vms

    def resolve(self) -> BoxTrace:
        """Open the shard and return the memory-mapped :class:`BoxTrace` view."""
        return open_box(self.root, self.meta)


@dataclass
class ShardManifest:
    """The shard store's index: fleet identity plus per-box metadata."""

    name: str
    boxes: List[BoxShardMeta]
    schema: str = SHARDS_SCHEMA
    #: Scenario provenance (``{"name": ..., "fingerprint": ...}``) when the
    #: store was rendered from a non-identity :class:`ScenarioSpec` or an
    #: external cluster trace; absent from legacy / paper-fig2 manifests so
    #: their bytes are unchanged.
    scenario: Optional[dict] = None

    @property
    def n_boxes(self) -> int:
        return len(self.boxes)

    @property
    def n_vms(self) -> int:
        return sum(meta.n_vms for meta in self.boxes)

    @property
    def total_bytes(self) -> int:
        return sum(meta.nbytes for meta in self.boxes)

    def save(self, root: Union[str, Path]) -> Path:
        """Atomically write the manifest under ``root``."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        boxes = []
        for meta in self.boxes:
            raw = asdict(meta)
            # Legacy manifests predate scenario_fp; dropping the None key
            # keeps pre-scenario stores byte-identical on rewrite.
            if raw.get("scenario_fp") is None:
                raw.pop("scenario_fp", None)
            boxes.append(raw)
        payload = {
            "schema": self.schema,
            "name": self.name,
            "boxes": boxes,
        }
        if self.scenario is not None:
            payload["scenario"] = self.scenario
        target = root / MANIFEST_NAME
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        _write_atomic(target, text.encode("utf-8"))
        return target

    @staticmethod
    def load(root: Union[str, Path]) -> "ShardManifest":
        """Read and validate the manifest under ``root``."""
        path = Path(root) / MANIFEST_NAME
        with path.open(encoding="utf-8") as handle:
            payload = json.load(handle)
        schema = payload.get("schema")
        if schema != SHARDS_SCHEMA:
            raise ValueError(
                f"shard manifest {path} has schema {schema!r}; "
                f"expected {SHARDS_SCHEMA!r}"
            )
        return ShardManifest(
            name=str(payload.get("name", "sharded")),
            boxes=[BoxShardMeta.from_dict(raw) for raw in payload["boxes"]],
            scenario=payload.get("scenario"),
        )


# ------------------------------------------------------------------ writing
def _shard_relpath(fingerprint: str) -> str:
    return f"shards/{fingerprint[:2]}/{fingerprint}.npy"


@lru_cache(maxsize=64)
def _npy_header(rows: int, cols: int) -> bytes:
    """The v1.0 ``.npy`` header ``np.save`` writes for a ``(rows, cols)``
    C-order little-endian float64 matrix.

    Its dict text, the spare spaces numpy leaves after it for growing the
    first axis (up to 21 digits), and the space padding plus newline that
    end the header on a 64-byte boundary (1 to 64 bytes, as numpy pads).
    """
    text = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {(rows, cols)!r}, }}"
    text += " " * (21 - len(repr(rows)))
    pad = 64 - (10 + len(text) + 1) % 64
    return (
        b"\x93NUMPY\x01\x00"
        + struct.pack("<H", len(text) + pad + 1)
        + text.encode("latin1")
        + b" " * pad
        + b"\n"
    )


def write_box_shard(box: BoxTrace, root: Union[str, Path]) -> BoxShardMeta:
    """Write one box's usage matrix as a content-addressed ``.npy`` shard.

    Idempotent: a shard already present under its fingerprint is left
    untouched (content addressing makes the bytes identical by
    construction).  Returns the manifest entry describing the box.
    """
    root = Path(root)
    matrix = np.ascontiguousarray(box.usage, dtype="<f8")
    fingerprint = data_fingerprint(matrix)
    rel = _shard_relpath(fingerprint)
    target = root / rel
    if not target.exists():
        _write_atomic(target, _npy_header(*matrix.shape), matrix)
        obs.inc("shards.writes")
        obs.inc("shards.bytes_written", float(matrix.nbytes))
    return BoxShardMeta(
        box_id=box.box_id,
        fingerprint=fingerprint,
        path=rel,
        cpu_capacity=float(box.cpu_capacity),
        ram_capacity=float(box.ram_capacity),
        vm_ids=box.vm_ids,
        vm_cpu_capacities=tuple(float(c) for c in box.vm_cpu_capacities),
        vm_ram_capacities=tuple(float(c) for c in box.vm_ram_capacities),
        n_windows=box.n_windows,
        interval_minutes=box.interval_minutes,
        scenario_fp=box.scenario_fp,
    )


def write_fleet_shards(fleet: FleetTrace, root: Union[str, Path]) -> ShardManifest:
    """Shard an in-RAM fleet under ``root`` and write the manifest.

    The manifest takes the fleet's name and records no scenario; each
    box's ``scenario_fp`` still lands in its own entry.  Fleet-scale
    stores are rendered straight to shards by :func:`generate_fleet_shards`.
    """
    metas = [write_box_shard(box, root) for box in fleet]
    manifest = ShardManifest(name=fleet.name, boxes=metas)
    manifest.save(root)
    return manifest


def _render_shard_block(indices: Sequence[int], cfg, spec, root: str) -> List[BoxShardMeta]:
    """Render boxes ``indices`` of a scenario and shard each as it lands.

    The unit of shard generation: the serial path runs it over the whole
    fleet, a pool worker over one contiguous block of box indices (module
    level so the executor can pickle it).  Each box -- its RNG, cohort
    envelope and regime shift -- derives from ``(cfg.seed, index)`` and
    the spec alone, so any split produces the exact bytes of the serial
    stream; content addressing then makes the stores literally the same
    files.
    """
    from repro.trace.scenario import render_boxes

    return [write_box_shard(box, root) for box in render_boxes(indices, spec, cfg)]


def generate_fleet_shards(
    cfg,
    root: Union[str, Path],
    name: str = "synthetic",
    jobs: Optional[int] = None,
    scenario=None,
) -> ShardManifest:
    """Generate a synthetic fleet straight into a shard store.

    Streams rendered boxes into shards one render block at a time -- the
    full fleet is never resident.  Honours the
    ``REPRO_FORBID_FLEET_GENERATION`` guard like ``generate_fleet``
    itself: the guard is checked *here*, before any worker is spawned,
    because this entry point is precisely the parent-side synthesis step
    the guard exists to localize -- its own pool workers render boxes by
    design, dispatched on blocks of box indices (a few bytes each) rather
    than trace data.

    ``jobs`` fans generation across processes through
    :class:`repro.core.executor.FleetExecutor` (``None`` reads
    ``REPRO_JOBS``; default serial), one contiguous block of
    :func:`default_chunksize` box indices per task.  Results
    are collected in box-index order and every shard is content-addressed,
    so the manifest -- and every byte of the store -- is identical at any
    worker count.  Either path runs under one ``shards.generate`` span.

    ``scenario`` (a :class:`repro.trace.scenario.ScenarioSpec`, ``None``
    meaning ``paper-fig2``) renders every box through the scenario engine;
    the identity ``paper-fig2`` spec takes the calibrated generator path,
    so its store stays bit-identical to a pre-scenario one.
    """
    from repro.core.executor import FleetExecutor, default_chunksize, resolve_jobs
    from repro.trace.generator import check_generation_allowed
    from repro.trace.scenario import resolve_scenario

    check_generation_allowed()
    scenario = resolve_scenario(scenario)
    manifest_scenario = None
    if not scenario.is_identity:
        manifest_scenario = {
            "name": scenario.name,
            "fingerprint": scenario.fingerprint(),
        }
    n_boxes = cfg.n_boxes
    workers = resolve_jobs(jobs)
    with obs.span("shards.generate"):
        if workers <= 1:
            metas = _render_shard_block(range(n_boxes), cfg, scenario, str(root))
        else:
            step = default_chunksize(n_boxes, workers)
            blocks = [range(i, min(i + step, n_boxes)) for i in range(0, n_boxes, step)]
            parts = FleetExecutor(jobs=workers, chunksize=1).map(
                _render_shard_block, blocks, cfg, scenario, str(root)
            )
            metas = [meta for part in parts for meta in part]
    manifest = ShardManifest(name=name, boxes=metas, scenario=manifest_scenario)
    manifest.save(root)
    return manifest


# ------------------------------------------------------------------ reading
def open_box(root: Union[str, Path], meta: BoxShardMeta) -> BoxTrace:
    """Map one shard and return the :class:`BoxTrace` view over it.

    A file whose header or length differs from what the manifest entry's
    ``(2M, T)`` float64 shape implies raises ``ValueError``: a shard
    store is authored by this module, so damage is a real error, not a
    cache miss.  The view is read-only and backed by the mapping.
    """
    path = Path(root) / meta.path
    shape = (2 * meta.n_vms, meta.n_windows)
    header = _npy_header(*shape)
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_CLOEXEC", 0))
    try:
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    except ValueError:  # an empty file cannot be mapped
        mapping = None
    finally:
        os.close(fd)
    if (
        mapping is None
        or len(mapping) != len(header) + meta.nbytes
        or mapping[:len(header)] != header
    ):
        size = 0
        if mapping is not None:
            size = len(mapping)
            mapping.close()
        raise ValueError(
            f"shard {path} does not match its manifest entry for box "
            f"{meta.box_id!r}: expected a {shape} float64 .npy file of "
            f"{len(header) + meta.nbytes} bytes, found {size} bytes with "
            "another header or length"
        )
    count = shape[0] * shape[1]
    matrix = np.frombuffer(mapping, "<f8", count, len(header)).reshape(shape)
    mark_shard_tier_active()
    obs.inc("shards.boxes_opened")
    obs.inc("shards.bytes_mapped", float(matrix.nbytes))
    obs.gauge_max("shards.max_box_bytes", float(matrix.nbytes))
    return BoxTrace(
        box_id=meta.box_id,
        cpu_capacity=meta.cpu_capacity,
        ram_capacity=meta.ram_capacity,
        vm_ids=meta.vm_ids,
        vm_cpu_capacities=meta.vm_cpu_capacities,
        vm_ram_capacities=meta.vm_ram_capacities,
        usage=matrix,
        interval_minutes=meta.interval_minutes,
        scenario_fp=meta.scenario_fp,
    )


def resolve_box(item: Union[BoxTrace, BoxShardRef]) -> BoxTrace:
    """Turn a work item into a BoxTrace: refs are mapped, boxes pass through.

    The one function per-box workers call first, so every fleet entry
    point accepts in-RAM fleets and shard stores interchangeably.
    """
    if isinstance(item, BoxShardRef):
        return item.resolve()
    return item


class ShardedFleet:
    """A fleet backed by a shard store: iterable like ``FleetTrace``,
    resident like a manifest.

    Boxes are opened lazily, one memory-mapped view per ``__iter__`` step
    or :meth:`box_by_id` call; nothing about the construction touches the
    shard data.  :meth:`box_refs` yields the descriptors the executor
    ships to workers.
    """

    def __init__(
        self, root: Union[str, Path], manifest: Optional[ShardManifest] = None
    ) -> None:
        self.root = Path(root)
        self.manifest = manifest if manifest is not None else ShardManifest.load(root)

    # ------------------------------------------------------- fleet-like API
    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def n_boxes(self) -> int:
        return self.manifest.n_boxes

    @property
    def n_vms(self) -> int:
        return self.manifest.n_vms

    @property
    def n_series(self) -> int:
        return 2 * self.n_vms

    def __len__(self) -> int:
        return self.n_boxes

    def __iter__(self) -> Iterator[BoxTrace]:
        for meta in self.manifest.boxes:
            yield open_box(self.root, meta)

    def box_by_id(self, box_id: str) -> BoxTrace:
        for meta in self.manifest.boxes:
            if meta.box_id == box_id:
                return open_box(self.root, meta)
        raise KeyError(f"no box {box_id!r} in sharded fleet {self.name!r}")

    # ----------------------------------------------------------- dispatch
    @property
    def scenario(self) -> Optional[dict]:
        """Scenario provenance recorded at write time (None for legacy stores)."""
        return self.manifest.scenario

    def box_refs(self) -> List[BoxShardRef]:
        """Per-box descriptors for zero-pickle worker dispatch."""
        root = str(self.root)
        return [BoxShardRef(root=root, meta=meta) for meta in self.manifest.boxes]


def load_fleet_shards(root: Union[str, Path]) -> ShardedFleet:
    """Open a shard store written by :func:`write_fleet_shards`."""
    return ShardedFleet(root)
