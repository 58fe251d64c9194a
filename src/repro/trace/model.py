"""Trace data model: boxes, fleets, and their usage/demand matrices.

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
  is the number of resources (CPU and RAM here).  :class:`BoxTrace` holds
  them as one ``(2M, T)`` matrix, CPU rows then RAM rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "FORBID_GENERATION_ENV_VAR",
    "MAX_USAGE_PCT",
    "Resource",
    "BoxTrace",
    "FleetTrace",
    "generation_forbidden",
    "mark_shard_tier_active",
    "shard_tier_active",
]

#: When set (to anything but ``0``/``false``/``off``/``no``, the falsy
#: spellings every ``REPRO_*`` gate shares) this guard forbids work that
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


def generation_forbidden() -> bool:
    """Whether the worker guard is on: the one parse both checks share."""
    # Lazy: repro.core imports repro.trace.
    from repro.core.runtime import fleet_generation_forbidden

    return fleet_generation_forbidden()


def _materialization_forbidden() -> bool:
    return _SHARD_TIER_ACTIVE and generation_forbidden()

#: Upper validation bound for usage percentages.  Values above 100 model
#: uncapped VMs consuming past their entitlement (common on AIX shared
#: LPARs and overcommitted hypervisors, which dominate the paper's trace).
MAX_USAGE_PCT = 400.0


class Resource(enum.Enum):
    """A monitored virtual resource."""

    CPU = "cpu"
    RAM = "ram"


#: Slack on the usage bounds: samples this close outside ``[0, MAX_USAGE_PCT]``
#: are float round-off and are clipped onto the bound instead of rejected.
_USAGE_TOLERANCE = 1e-9


@dataclass
class BoxTrace:
    """One physical box hosting ``M`` co-located VMs, as one usage matrix.

    Parameters
    ----------
    box_id:
        Stable identifier (unique within the fleet).
    cpu_capacity, ram_capacity:
        Total virtual capacities available for allocation on the box (the
        knapsack budget ``C`` of the resizing problem), in GHz and GB.
    vm_ids:
        The ``M`` VM identifiers, in row order.
    vm_cpu_capacities, vm_ram_capacities:
        Each VM's allocated CPU (GHz) and RAM (GB) capacity, in row order.
    usage:
        The ``(2M, T)`` percent-of-allocation matrix, one column per
        ticketing window: every VM's CPU series (rows ``0..M-1``), then
        every VM's RAM series (rows ``M..2M-1``) -- see :meth:`rows`.

    The field names match :class:`repro.store.shards.BoxShardMeta`, so a
    manifest entry maps onto a box field by field.  Construction validates
    the matrix once and keeps it as a read-only view: an in-range matrix
    (a memory-mapped shard included) is never copied, and only samples
    within round-off of a bound are clipped onto it.
    """

    box_id: str
    cpu_capacity: float
    ram_capacity: float
    vm_ids: Tuple[str, ...]
    vm_cpu_capacities: Tuple[float, ...]
    vm_ram_capacities: Tuple[float, ...]
    usage: np.ndarray
    interval_minutes: int = 15
    #: Fingerprint of the :class:`repro.trace.scenario.ScenarioSpec` that
    #: rendered this box (``None`` for the calibrated legacy profile and
    #: for traces predating the scenario engine).  Folded into
    #: :func:`repro.core.stages.box_fingerprint` so two scenarios sharing
    #: a fleet seed never share store artifacts.
    scenario_fp: Optional[str] = None

    def __post_init__(self) -> None:
        m = len(self.vm_ids)
        if m == 0:
            raise ValueError(f"box {self.box_id} hosts no VMs")
        if self.cpu_capacity <= 0 or self.ram_capacity <= 0:
            raise ValueError(f"box {self.box_id}: capacities must be positive")
        self.vm_ids = tuple(self.vm_ids)
        cpu_caps = self.vm_cpu_capacities = tuple(self.vm_cpu_capacities)
        ram_caps = self.vm_ram_capacities = tuple(self.vm_ram_capacities)
        if len(cpu_caps) != m or len(ram_caps) != m or min(cpu_caps + ram_caps) <= 0:
            raise ValueError(
                f"box {self.box_id}: need one positive CPU and RAM capacity "
                f"per VM for {m} VMs, got cpu={cpu_caps}, ram={ram_caps}"
            )
        if self.interval_minutes <= 0:
            raise ValueError("interval_minutes must be positive")
        usage = np.asarray(self.usage, dtype=float)
        if usage.ndim != 2 or usage.shape[0] != 2 * m or usage.shape[1] == 0:
            raise ValueError(
                f"box {self.box_id}: usage must be a (2M, T>0) = ({2 * m}, T) "
                f"matrix, got shape {usage.shape}"
            )
        # min/max propagate NaN and surface an infinity, so two passes
        # check finiteness and range together.
        lo, hi = usage.min(), usage.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"box {self.box_id}: usage contains non-finite samples")
        if lo < -_USAGE_TOLERANCE or hi > MAX_USAGE_PCT + _USAGE_TOLERANCE:
            raise ValueError(
                f"box {self.box_id}: usage must be percentages in "
                f"[0, {MAX_USAGE_PCT:.0f}], got range [{lo:.3f}, {hi:.3f}]"
            )
        if lo < 0.0 or hi > MAX_USAGE_PCT:
            usage = np.clip(usage, 0.0, MAX_USAGE_PCT)
        view = usage.view()
        view.flags.writeable = False
        self.usage = view

    def __reduce__(self):
        # Unpickle through the constructor too, so a pool worker's copy of
        # the box is validated and read-only like the original.
        return (BoxTrace, tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def n_vms(self) -> int:
        return len(self.vm_ids)

    @property
    def n_windows(self) -> int:
        return self.usage.shape[1]

    @property
    def windows_per_day(self) -> int:
        return (24 * 60) // self.interval_minutes

    def rows(self, resource: Resource) -> slice:
        """The rows of ``resource`` in the stacked ``(2M, T)`` layout."""
        m = self.n_vms
        return slice(0, m) if resource is Resource.CPU else slice(m, 2 * m)

    def capacity(self, resource: Resource) -> float:
        return self.cpu_capacity if resource is Resource.CPU else self.ram_capacity

    def usage_matrix(self, resource: Optional[Resource] = None) -> np.ndarray:
        """Return the (read-only) usage rows.

        With ``resource`` given: the ``(M, T)`` rows of that resource.
        Without: the full ``(2M, T)`` matrix, CPU rows then RAM rows.
        """
        if resource is None:
            return self.usage
        return self.usage[self.rows(resource)]

    def demand_matrix(self, resource: Optional[Resource] = None) -> np.ndarray:
        """Like :meth:`usage_matrix` but in absolute demand units."""
        if resource is None:
            caps = np.array(self.vm_cpu_capacities + self.vm_ram_capacities)
        else:
            caps = self.allocations(resource)
        return self.usage_matrix(resource) / 100.0 * caps[:, None]

    def allocations(self, resource: Resource) -> np.ndarray:
        """Return the current per-VM allocated capacities for a resource."""
        if resource is Resource.CPU:
            return np.array(self.vm_cpu_capacities)
        return np.array(self.vm_ram_capacities)

    def split_windows(self, train_windows: int) -> Tuple["BoxTrace", "BoxTrace"]:
        """Split the box trace into (training, evaluation) window ranges.

        Both halves are read-only views of this box's matrix.
        """
        if not 0 < train_windows < self.n_windows:
            raise ValueError(
                f"train_windows must be in (0, {self.n_windows}), got {train_windows}"
            )
        return (
            replace(self, usage=self.usage[:, :train_windows]),
            replace(self, usage=self.usage[:, train_windows:]),
        )


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
