"""Trace data model: VMs, boxes, fleets, and their usage/demand series.

Conventions (matching the paper's monitoring data):

* Usage series are percentages of the VM's *allocated* virtual capacity,
  sampled once per ticketing window (15 minutes in the paper).  Usage may
  exceed 100%: the paper's trace is dominated by AIX/HP-UX and VMware
  systems where uncapped/overcommitted VMs can consume beyond their
  entitlement.  (This is also the only reading under which the paper's
  "stingy" peak-demand allocator can reduce tickets at all — see
  DESIGN.md.)  Validation caps usage at :data:`MAX_USAGE_PCT`.
* Demand series are usage multiplied by allocated capacity — absolute GHz
  for CPU, GB for RAM (paper Section III, footnote 2).  Demand is what the
  prediction models forecast and what the resizing algorithm consumes.
* A *box* hosts ``M`` co-located VMs and owns ``M x N`` series, where ``N``
  is the number of resources (CPU and RAM here).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "FORBID_GENERATION_ENV_VAR",
    "MAX_USAGE_PCT",
    "Resource",
    "VMTrace",
    "BoxTrace",
    "FleetTrace",
    "mark_shard_tier_active",
    "shard_tier_active",
]

#: When set (to anything but ``""``/``0``) this guard forbids work that
#: multiplies fleet-scale memory or compute inside pool workers: fleet
#: *generation* (enforced by :func:`repro.trace.generator.generate_fleet`,
#: which re-exports this name) and — once the memory-mapped shard tier is
#: active in a process — full-fleet *materialization* (constructing a
#: :class:`FleetTrace`, enforced below).  Workers on the shard path build
#: per-box views over mapped arrays; holding the whole fleet would defeat
#: the bounded-memory contract the tests pin down.
FORBID_GENERATION_ENV_VAR = "REPRO_FORBID_FLEET_GENERATION"

# Process-local marker: flipped by repro.store.shards the first time a
# shard-backed box view is opened in this process (workers inherit a set
# flag across fork).  Only meaningful combined with the guard variable.
_SHARD_TIER_ACTIVE = False


def mark_shard_tier_active() -> None:
    """Record that this process has opened memory-mapped trace shards."""
    global _SHARD_TIER_ACTIVE
    _SHARD_TIER_ACTIVE = True


def shard_tier_active() -> bool:
    """Whether any shard-backed box view was opened in this process."""
    return _SHARD_TIER_ACTIVE


def _materialization_forbidden() -> bool:
    if not _SHARD_TIER_ACTIVE:
        return False
    return os.environ.get(FORBID_GENERATION_ENV_VAR, "").strip() not in ("", "0")

#: Upper validation bound for usage percentages.  Values above 100 model
#: uncapped VMs consuming past their entitlement (common on AIX shared
#: LPARs and overcommitted hypervisors, which dominate the paper's trace).
MAX_USAGE_PCT = 400.0


class Resource(enum.Enum):
    """A monitored virtual resource."""

    CPU = "cpu"
    RAM = "ram"


def _validate_usage(usage: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(usage, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    if arr.min() < -1e-9 or arr.max() > MAX_USAGE_PCT + 1e-9:
        raise ValueError(
            f"{name} must be a percentage series in [0, {MAX_USAGE_PCT:.0f}], "
            f"got range [{arr.min():.3f}, {arr.max():.3f}]"
        )
    return np.clip(arr, 0.0, MAX_USAGE_PCT)


@dataclass
class VMTrace:
    """One virtual machine: allocated capacities and usage series.

    Parameters
    ----------
    vm_id:
        Stable identifier (unique within the fleet).
    cpu_capacity:
        Allocated virtual CPU capacity in GHz.
    ram_capacity:
        Allocated virtual RAM capacity in GB.
    cpu_usage, ram_usage:
        Percent-of-allocation series, one sample per ticketing window.
    """

    vm_id: str
    cpu_capacity: float
    ram_capacity: float
    cpu_usage: np.ndarray
    ram_usage: np.ndarray

    def __post_init__(self) -> None:
        if self.cpu_capacity <= 0 or self.ram_capacity <= 0:
            raise ValueError(
                f"VM {self.vm_id}: capacities must be positive, got "
                f"cpu={self.cpu_capacity}, ram={self.ram_capacity}"
            )
        self.cpu_usage = _validate_usage(self.cpu_usage, f"VM {self.vm_id} cpu_usage")
        self.ram_usage = _validate_usage(self.ram_usage, f"VM {self.vm_id} ram_usage")
        if self.cpu_usage.size != self.ram_usage.size:
            raise ValueError(
                f"VM {self.vm_id}: cpu and ram series lengths differ "
                f"({self.cpu_usage.size} vs {self.ram_usage.size})"
            )

    @property
    def n_windows(self) -> int:
        return self.cpu_usage.size

    def capacity(self, resource: Resource) -> float:
        return self.cpu_capacity if resource is Resource.CPU else self.ram_capacity

    def usage(self, resource: Resource) -> np.ndarray:
        return self.cpu_usage if resource is Resource.CPU else self.ram_usage

    def demand(self, resource: Resource) -> np.ndarray:
        """Return the absolute demand series (usage x allocated capacity)."""
        return self.usage(resource) / 100.0 * self.capacity(resource)


@dataclass
class BoxTrace:
    """One physical box hosting co-located VMs.

    ``cpu_capacity``/``ram_capacity`` are the total virtual capacities
    available for allocation on the box (the knapsack budget ``C`` of the
    resizing problem).
    """

    box_id: str
    cpu_capacity: float
    ram_capacity: float
    vms: List[VMTrace]
    interval_minutes: int = 15
    #: Fingerprint of the :class:`repro.trace.scenario.ScenarioSpec` that
    #: rendered this box (``None`` for the calibrated legacy profile and
    #: for traces predating the scenario engine).  Folded into
    #: :func:`repro.core.stages.box_fingerprint` so two scenarios sharing
    #: a fleet seed never share store artifacts.
    scenario_fp: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.vms:
            raise ValueError(f"box {self.box_id} hosts no VMs")
        if self.cpu_capacity <= 0 or self.ram_capacity <= 0:
            raise ValueError(f"box {self.box_id}: capacities must be positive")
        lengths = {vm.n_windows for vm in self.vms}
        if len(lengths) != 1:
            raise ValueError(
                f"box {self.box_id}: VMs have inconsistent series lengths {sorted(lengths)}"
            )
        if self.interval_minutes <= 0:
            raise ValueError("interval_minutes must be positive")

    @property
    def n_vms(self) -> int:
        return len(self.vms)

    @property
    def n_windows(self) -> int:
        return self.vms[0].n_windows

    @property
    def windows_per_day(self) -> int:
        return (24 * 60) // self.interval_minutes

    def capacity(self, resource: Resource) -> float:
        return self.cpu_capacity if resource is Resource.CPU else self.ram_capacity

    def usage_matrix(self, resource: Optional[Resource] = None) -> np.ndarray:
        """Return usage series stacked as rows.

        With ``resource`` given: an ``(M, T)`` matrix for that resource.
        Without: the full ``(M*N, T)`` matrix, CPU rows by VM index then RAM rows.
        """
        if resource is not None:
            return np.vstack([vm.usage(resource) for vm in self.vms])
        return np.vstack(
            [vm.cpu_usage for vm in self.vms] + [vm.ram_usage for vm in self.vms]
        )

    def demand_matrix(self, resource: Optional[Resource] = None) -> np.ndarray:
        """Like :meth:`usage_matrix` but in absolute demand units."""
        if resource is not None:
            return np.vstack([vm.demand(resource) for vm in self.vms])
        return np.vstack(
            [vm.demand(Resource.CPU) for vm in self.vms]
            + [vm.demand(Resource.RAM) for vm in self.vms]
        )

    def allocations(self, resource: Resource) -> np.ndarray:
        """Return the current per-VM allocated capacities for a resource."""
        return np.array([vm.capacity(resource) for vm in self.vms])

    def split_windows(self, train_windows: int) -> Tuple["BoxTrace", "BoxTrace"]:
        """Split the box trace into (training, evaluation) window ranges."""
        if not 0 < train_windows < self.n_windows:
            raise ValueError(
                f"train_windows must be in (0, {self.n_windows}), got {train_windows}"
            )

        def slice_vm(vm: VMTrace, lo: int, hi: int) -> VMTrace:
            return VMTrace(
                vm_id=vm.vm_id,
                cpu_capacity=vm.cpu_capacity,
                ram_capacity=vm.ram_capacity,
                cpu_usage=vm.cpu_usage[lo:hi].copy(),
                ram_usage=vm.ram_usage[lo:hi].copy(),
            )

        head = BoxTrace(
            box_id=self.box_id,
            cpu_capacity=self.cpu_capacity,
            ram_capacity=self.ram_capacity,
            vms=[slice_vm(vm, 0, train_windows) for vm in self.vms],
            interval_minutes=self.interval_minutes,
            scenario_fp=self.scenario_fp,
        )
        tail = BoxTrace(
            box_id=self.box_id,
            cpu_capacity=self.cpu_capacity,
            ram_capacity=self.ram_capacity,
            vms=[slice_vm(vm, train_windows, self.n_windows) for vm in self.vms],
            interval_minutes=self.interval_minutes,
            scenario_fp=self.scenario_fp,
        )
        return head, tail


@dataclass
class FleetTrace:
    """A collection of box traces — the unit the fleet pipeline operates on."""

    boxes: List[BoxTrace]
    name: str = "fleet"
    #: Scenario fingerprint shared by every box (``None`` = legacy profile).
    scenario_fp: Optional[str] = None

    def __post_init__(self) -> None:
        if _materialization_forbidden():
            raise RuntimeError(
                f"full-fleet materialization is forbidden "
                f"({FORBID_GENERATION_ENV_VAR} is set and the shard tier is "
                f"active): processes on the shard path operate on per-box "
                f"memory-mapped views, never a whole in-RAM FleetTrace"
            )
        if not self.boxes:
            raise ValueError("fleet contains no boxes")
        ids = [box.box_id for box in self.boxes]
        if len(set(ids)) != len(ids):
            raise ValueError("box ids must be unique within a fleet")

    @property
    def n_boxes(self) -> int:
        return len(self.boxes)

    @property
    def n_vms(self) -> int:
        return sum(box.n_vms for box in self.boxes)

    @property
    def n_series(self) -> int:
        return 2 * self.n_vms

    def __iter__(self) -> Iterator[BoxTrace]:
        return iter(self.boxes)

    def box_by_id(self, box_id: str) -> BoxTrace:
        for box in self.boxes:
            if box.box_id == box_id:
                return box
        raise KeyError(f"no box {box_id!r} in fleet {self.name!r}")
