"""Capacity actuation: the cgroups-style enforcement layer (Section IV-C).

The paper enforces resizing decisions through Linux cgroups exposed by a
small per-hypervisor web daemon: limits change on-the-fly (no guest
restart) and CPU limits are continuous rather than whole-core steps.

This module defines the :class:`Actuator` protocol that layer exposes and a
:class:`SimulatedCgroupsActuator` with the same semantics for the simulated
testbed: apply per-VM limits between ticketing windows, keep an audit log,
reject impossible limits.  A production deployment would implement the same
protocol against ``/sys/fs/cgroup``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.trace.model import Resource

__all__ = ["Actuator", "LimitChange", "SimulatedCgroupsActuator"]


@dataclass(frozen=True)
class LimitChange:
    """One applied limit change, for auditability."""

    window: int
    vm_id: str
    resource: Resource
    old_limit: float
    new_limit: float


class Actuator(Protocol):
    """What ATM needs from an enforcement backend."""

    def current_limit(self, vm_id: str, resource: Resource) -> float:
        """Return the currently enforced limit for a VM resource."""
        ...  # pragma: no cover - protocol

    def apply_limits(
        self, window: int, limits: Dict[Tuple[str, Resource], float]
    ) -> List[LimitChange]:
        """Enforce a batch of limits atomically at a window boundary."""
        ...  # pragma: no cover - protocol


class SimulatedCgroupsActuator:
    """In-memory actuator with cgroups semantics.

    * Limits are continuous and positive.
    * Changes apply instantly (no VM restart), only at window boundaries.
    * The per-host physical capacity is respected: the sum of enforced
      limits per resource may not exceed it.
    """

    def __init__(self, host_capacity: Dict[Resource, float]) -> None:
        for resource, capacity in host_capacity.items():
            if capacity <= 0:
                raise ValueError(f"{resource} capacity must be positive")
        self._host_capacity = dict(host_capacity)
        self._limits: Dict[Tuple[str, Resource], float] = {}

    def register_vm(self, vm_id: str, limits: Dict[Resource, float]) -> None:
        """Register a VM with its initial limits."""
        for resource, limit in limits.items():
            if limit <= 0:
                raise ValueError(f"initial limit for {vm_id}/{resource} must be positive")
            self._limits[(vm_id, resource)] = limit
        self._check_host_budget()

    def current_limit(self, vm_id: str, resource: Resource) -> float:
        key = (vm_id, resource)
        if key not in self._limits:
            raise KeyError(f"VM {vm_id!r} has no {resource.value} limit registered")
        return self._limits[key]

    def apply_limits(
        self, window: int, limits: Dict[Tuple[str, Resource], float]
    ) -> List[LimitChange]:
        """Apply a batch of limit changes; all-or-nothing validation."""
        for (vm_id, resource), limit in limits.items():
            if (vm_id, resource) not in self._limits:
                raise KeyError(f"VM {vm_id!r} has no {resource.value} limit registered")
            if limit <= 0:
                raise ValueError(
                    f"limit for {vm_id}/{resource.value} must be positive, got {limit}"
                )
        staged = dict(self._limits)
        staged.update(limits)
        self._check_host_budget(staged)

        changes: List[LimitChange] = []
        for (vm_id, resource), new_limit in sorted(
            limits.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            old_limit = self._limits[(vm_id, resource)]
            if abs(old_limit - new_limit) < 1e-12:
                continue
            self._limits[(vm_id, resource)] = new_limit
            change = LimitChange(
                window=window,
                vm_id=vm_id,
                resource=resource,
                old_limit=old_limit,
                new_limit=new_limit,
            )
            changes.append(change)
        return changes

    def _check_host_budget(
        self, limits: Optional[Dict[Tuple[str, Resource], float]] = None
    ) -> None:
        limits = self._limits if limits is None else limits
        for resource, capacity in self._host_capacity.items():
            total = sum(
                limit for (vm, res), limit in limits.items() if res is resource
            )
            if total > capacity + 1e-9:
                raise ValueError(
                    f"total {resource.value} limits {total:.3f} exceed host "
                    f"capacity {capacity:.3f}"
                )
