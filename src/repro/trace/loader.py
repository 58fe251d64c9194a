"""Fleet-trace persistence: long-format CSV and memory-mapped shard stores.

The CSV layout mirrors what a monitoring exporter would produce — one
long-format CSV with a row per (box, vm, resource, window) observation plus
capacity columns — so real monitoring dumps in the same shape can be loaded
and pushed through the identical analysis pipeline.

Format (header included):

    box_id,box_cpu_capacity,box_ram_capacity,vm_id,vm_cpu_capacity,
    vm_ram_capacity,window,cpu_used_pct,ram_used_pct

For fleets too large to hold in RAM, the *shard store*
(:mod:`repro.store.shards`) is the paper-scale format: one content-addressed
``.npy`` usage matrix per box plus a JSON manifest, opened as ``np.memmap``
views.  :func:`save_fleet_shards` / :func:`load_fleet_shards` are re-exported
here so trace persistence has one front door; :func:`shard_fleet_csv`
converts a monitoring CSV into a shard store box by box.
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from repro.trace.model import BoxTrace, FleetTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.shards import ShardedFleet, ShardManifest

__all__ = [
    "external_fingerprint",
    "load_cluster_csv",
    "load_fleet_csv",
    "load_fleet_shards",
    "save_fleet_csv",
    "save_fleet_shards",
    "shard_cluster_csv",
    "shard_fleet_csv",
]

_HEADER = [
    "box_id",
    "box_cpu_capacity",
    "box_ram_capacity",
    "vm_id",
    "vm_cpu_capacity",
    "vm_ram_capacity",
    "window",
    "cpu_used_pct",
    "ram_used_pct",
]


def save_fleet_csv(fleet: FleetTrace, path: Union[str, Path]) -> None:
    """Write a fleet trace to ``path`` in the long CSV format."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for box in fleet:
            m = box.n_vms
            for i, vm_id in enumerate(box.vm_ids):
                cpu, ram = box.usage[i], box.usage[m + i]
                for t in range(box.n_windows):
                    writer.writerow(
                        [
                            box.box_id,
                            f"{box.cpu_capacity:.6f}",
                            f"{box.ram_capacity:.6f}",
                            vm_id,
                            f"{box.vm_cpu_capacities[i]:.6f}",
                            f"{box.vm_ram_capacities[i]:.6f}",
                            t,
                            f"{cpu[t]:.4f}",
                            f"{ram[t]:.4f}",
                        ]
                    )


def load_fleet_csv(
    path: Union[str, Path],
    interval_minutes: int = 15,
    name: str = "loaded",
) -> FleetTrace:
    """Load a fleet trace previously written by :func:`save_fleet_csv`.

    Rows may appear in any order; windows are sorted per VM.  Raises
    ``ValueError`` on a malformed header or on VMs with missing windows
    (the paper likewise restricts its ATM evaluation to gap-free boxes).
    """
    path = Path(path)
    boxes: "OrderedDict[str, dict]" = OrderedDict()
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _HEADER:
            raise ValueError(
                f"unexpected CSV header in {path}: {header!r}; expected {_HEADER!r}"
            )
        for row in reader:
            if len(row) != len(_HEADER):
                raise ValueError(f"malformed row in {path}: {row!r}")
            (
                box_id,
                box_cpu,
                box_ram,
                vm_id,
                vm_cpu,
                vm_ram,
                window,
                cpu_pct,
                ram_pct,
            ) = row
            box = boxes.setdefault(
                box_id,
                {
                    "cpu_capacity": float(box_cpu),
                    "ram_capacity": float(box_ram),
                    "vms": OrderedDict(),
                },
            )
            vm = box["vms"].setdefault(
                vm_id,
                {
                    "cpu_capacity": float(vm_cpu),
                    "ram_capacity": float(vm_ram),
                    "samples": [],
                },
            )
            vm["samples"].append((int(window), float(cpu_pct), float(ram_pct)))

    built: List[BoxTrace] = []
    for box_id, box in boxes.items():
        cpu_rows, ram_rows = [], []
        for vm_id, vm in box["vms"].items():
            samples = sorted(vm["samples"])
            windows = [w for w, _, _ in samples]
            if windows != list(range(len(windows))):
                raise ValueError(
                    f"VM {vm_id} in {path} has gaps or duplicate windows"
                )
            cpu_rows.append([c for _, c, _ in samples])
            ram_rows.append([r for _, _, r in samples])
        lengths = sorted({len(row) for row in cpu_rows})
        if len(lengths) != 1:
            raise ValueError(
                f"box {box_id} in {path}: VMs have inconsistent series "
                f"lengths {lengths}"
            )
        vms = box["vms"]
        built.append(
            BoxTrace(
                box_id=box_id,
                cpu_capacity=box["cpu_capacity"],
                ram_capacity=box["ram_capacity"],
                vm_ids=tuple(vms),
                vm_cpu_capacities=tuple(vm["cpu_capacity"] for vm in vms.values()),
                vm_ram_capacities=tuple(vm["ram_capacity"] for vm in vms.values()),
                usage=np.array(cpu_rows + ram_rows),
                interval_minutes=interval_minutes,
            )
        )
    return FleetTrace(boxes=built, name=name)


# ------------------------------------------------- public cluster traces
# Azure/Google-style cluster dumps are *long* CSVs keyed by machine and
# timestamp rather than by pre-assigned window index.  The adapter below
# maps them onto the BoxTrace API: machines become boxes, per-machine
# sorted unique timestamps become window indices, and capacities (absent
# from public utilization dumps) fall back to configurable defaults so
# percent-of-allocation semantics are preserved.
_CLUSTER_HEADER = [
    "machine_id",
    "vm_id",
    "timestamp",
    "cpu_util_pct",
    "ram_util_pct",
]
_CLUSTER_CAPACITY_COLUMNS = ["vm_cpu_capacity", "vm_ram_capacity"]


def external_fingerprint(path: Union[str, Path]) -> str:
    """Content hash of an external trace file — the spec-free scenario key.

    Real traces have no :class:`~repro.trace.scenario.ScenarioSpec`; the
    file's BLAKE2b digest plays the same role, keying store artifacts so
    two different dumps (or an edited one) never share them.
    """
    import hashlib

    digest = hashlib.blake2b(digest_size=20)
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_cluster_csv(
    path: Union[str, Path],
    interval_minutes: int = 5,
    name: str = "external",
    default_vm_cpu_capacity: float = 1.0,
    default_vm_ram_capacity: float = 1.0,
    headroom: float = 1.2,
) -> FleetTrace:
    """Load an Azure/Google-style long cluster CSV as a :class:`FleetTrace`.

    Expected header: ``machine_id,vm_id,timestamp,cpu_util_pct,ram_util_pct``
    with optional trailing ``vm_cpu_capacity,vm_ram_capacity`` columns.
    Timestamps may be arbitrary monotone sample times (epoch seconds in the
    public dumps); each machine's sorted unique timestamps become its
    window indices, and every VM on a machine must cover all of them (the
    paper likewise restricts its evaluation to gap-free boxes).  Machine
    capacity is the sum of VM capacities times ``headroom``.  The fleet and
    every box carry :func:`external_fingerprint` as their ``scenario_fp``.
    """
    path = Path(path)
    if headroom <= 0:
        raise ValueError("headroom must be positive")
    machines: "OrderedDict[str, OrderedDict[str, dict]]" = OrderedDict()
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        with_caps = header == _CLUSTER_HEADER + _CLUSTER_CAPACITY_COLUMNS
        if header != _CLUSTER_HEADER and not with_caps:
            raise ValueError(
                f"unexpected cluster CSV header in {path}: {header!r}; "
                f"expected {_CLUSTER_HEADER!r} (optionally followed by "
                f"{_CLUSTER_CAPACITY_COLUMNS!r})"
            )
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"malformed row in {path}: {row!r}")
            machine_id, vm_id, timestamp = row[0], row[1], float(row[2])
            cpu_pct, ram_pct = float(row[3]), float(row[4])
            vms = machines.setdefault(machine_id, OrderedDict())
            vm = vms.setdefault(
                vm_id,
                {
                    "cpu_capacity": (
                        float(row[5]) if with_caps else default_vm_cpu_capacity
                    ),
                    "ram_capacity": (
                        float(row[6]) if with_caps else default_vm_ram_capacity
                    ),
                    "samples": {},
                },
            )
            if timestamp in vm["samples"]:
                raise ValueError(
                    f"VM {vm_id} in {path} has duplicate samples at "
                    f"timestamp {timestamp}"
                )
            vm["samples"][timestamp] = (cpu_pct, ram_pct)

    fingerprint = external_fingerprint(path)
    built: List[BoxTrace] = []
    for machine_id, vms in machines.items():
        timestamps = sorted({t for vm in vms.values() for t in vm["samples"]})
        for vm_id, vm in vms.items():
            missing = [t for t in timestamps if t not in vm["samples"]]
            if missing:
                raise ValueError(
                    f"VM {vm_id} in {path} is missing {len(missing)} of "
                    f"machine {machine_id}'s {len(timestamps)} sample times "
                    f"(gap-free VMs required)"
                )
        cpu_caps = tuple(vm["cpu_capacity"] for vm in vms.values())
        ram_caps = tuple(vm["ram_capacity"] for vm in vms.values())
        usage = [
            [vm["samples"][t][k] for t in timestamps]
            for k in (0, 1)
            for vm in vms.values()
        ]
        built.append(
            BoxTrace(
                box_id=machine_id,
                cpu_capacity=sum(cpu_caps) * headroom,
                ram_capacity=sum(ram_caps) * headroom,
                vm_ids=tuple(vms),
                vm_cpu_capacities=cpu_caps,
                vm_ram_capacities=ram_caps,
                usage=np.array(usage),
                interval_minutes=interval_minutes,
                scenario_fp=fingerprint,
            )
        )
    fleet = FleetTrace(boxes=built, name=name, scenario_fp=fingerprint)
    return fleet


def shard_cluster_csv(
    csv_path: Union[str, Path],
    root: Union[str, Path],
    interval_minutes: int = 5,
    name: str = "external",
    default_vm_cpu_capacity: float = 1.0,
    default_vm_ram_capacity: float = 1.0,
    headroom: float = 1.2,
) -> "ShardedFleet":
    """Convert a public cluster CSV straight into a shard store.

    The manifest records the external fingerprint in its ``scenario``
    entry (name ``"external"``), so shard-backed runs on real traces key
    their artifacts exactly like scenario-rendered fleets do.
    """
    from repro.store.shards import ShardedFleet, write_fleet_shards

    fleet = load_cluster_csv(
        csv_path,
        interval_minutes=interval_minutes,
        name=name,
        default_vm_cpu_capacity=default_vm_cpu_capacity,
        default_vm_ram_capacity=default_vm_ram_capacity,
        headroom=headroom,
    )
    manifest = write_fleet_shards(
        fleet,
        root,
        name=name,
        scenario={"name": "external", "fingerprint": fleet.scenario_fp},
    )
    return ShardedFleet(root, manifest=manifest)


# Shard-store persistence delegates to repro.store.shards; the imports are
# lazy because repro.store itself imports the trace model (the package
# re-exports would otherwise form an import cycle at startup).
def save_fleet_shards(
    fleet: FleetTrace, root: Union[str, Path], name: Optional[str] = None
) -> "ShardManifest":
    """Write a fleet as a memory-mapped shard store under ``root``."""
    from repro.store.shards import write_fleet_shards

    return write_fleet_shards(fleet, root, name=name)


def load_fleet_shards(root: Union[str, Path]) -> "ShardedFleet":
    """Open a shard store previously written by :func:`save_fleet_shards`."""
    from repro.store.shards import load_fleet_shards as _load

    return _load(root)


def shard_fleet_csv(
    csv_path: Union[str, Path],
    root: Union[str, Path],
    interval_minutes: int = 15,
    name: str = "loaded",
) -> "ShardedFleet":
    """Convert a monitoring CSV into a shard store and open it.

    The CSV parse itself builds the in-RAM fleet (the long format is not
    seekable per box), so this is the migration path for traces that *fit*
    once; afterwards every run maps slices instead of re-parsing CSV.
    """
    from repro.store.shards import ShardedFleet, write_fleet_shards

    fleet = load_fleet_csv(csv_path, interval_minutes=interval_minutes, name=name)
    manifest = write_fleet_shards(fleet, root, name=name)
    return ShardedFleet(root, manifest=manifest)
