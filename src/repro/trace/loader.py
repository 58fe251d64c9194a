"""The long fleet CSV: the one external input format.

The CSV layout mirrors what a monitoring exporter would produce — one
long-format CSV with a row per (box, vm, window) observation plus capacity
columns — so monitoring dumps in the same shape can be loaded and pushed
through the identical analysis pipeline.

Format (header included):

    box_id,box_cpu_capacity,box_ram_capacity,vm_id,vm_cpu_capacity,
    vm_ram_capacity,window,cpu_used_pct,ram_used_pct

For fleets too large to hold in RAM, the *shard store*
(:mod:`repro.store.shards`) is the paper-scale format: one content-addressed
``.npy`` usage matrix per box plus a JSON manifest, opened as read-only
views of a file mapping.  :func:`shard_fleet_csv` converts a fleet CSV into a shard store.
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, List, Union

import numpy as np

from repro.trace.model import BoxTrace, FleetTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.shards import ShardedFleet

__all__ = ["load_fleet_csv", "save_fleet_csv", "shard_fleet_csv"]

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


def load_fleet_csv(path: Union[str, Path]) -> FleetTrace:
    """Load a fleet trace previously written by :func:`save_fleet_csv`.

    The fleet is named ``"loaded"`` and keeps the paper's 15-minute
    windows.  Rows may appear in any order; windows are sorted
    per VM.  Raises
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
            )
        )
    return FleetTrace(boxes=built, name="loaded")


def shard_fleet_csv(
    csv_path: Union[str, Path], root: Union[str, Path]
) -> "ShardedFleet":
    """Convert a fleet CSV into a shard store and open it.

    The CSV parse itself builds the in-RAM fleet (the long format is not
    seekable per box), so this is the migration path for traces that *fit*
    once; afterwards every run maps slices instead of re-parsing CSV.
    """
    from repro.store.shards import ShardedFleet, write_fleet_shards

    fleet = load_fleet_csv(csv_path)
    manifest = write_fleet_shards(fleet, root)
    return ShardedFleet(root, manifest=manifest)
