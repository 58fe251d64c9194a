"""Physical nodes, VM placement, and the cgroups enforcement layer.

Reproduces the paper's testbed hardware (Fig. 11): identical servers with a
4-core 3.6 GHz Core i7 (SMT) and 16 GiB RAM; three host VMs, the fourth is
the load generator (not simulated — its work is the workload module).  Each
VM gets 2 vCPUs and 4 GiB.  ATM enforces per-VM CPU limits through a
:class:`~repro.resizing.actuation.SimulatedCgroupsActuator` per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.resizing.actuation import SimulatedCgroupsActuator
from repro.trace.model import Resource

__all__ = ["NodeSpec", "VMInstance", "TestbedCluster"]

#: Effective per-core clock of the testbed hosts (GHz).
CORE_GHZ = 3.6
#: Physical cores per host.
CORES_PER_NODE = 4
#: Fraction of physical CPU the hypervisor may hand out (scheduler slack).
ALLOCATABLE_FRACTION = 0.95
#: Throughput factor of simultaneous multithreading (the testbed i7 runs
#: 8 hardware threads on 4 cores; SMT yields ~25% extra throughput).
SMT_FACTOR = 1.25


@dataclass(frozen=True)
class NodeSpec:
    """One physical host."""

    name: str
    cores: int = CORES_PER_NODE
    core_ghz: float = CORE_GHZ
    ram_gb: float = 16.0
    smt_factor: float = SMT_FACTOR

    @property
    def cpu_capacity(self) -> float:
        """Total allocatable CPU in GHz (SMT-adjusted)."""
        return ALLOCATABLE_FRACTION * self.cores * self.core_ghz * self.smt_factor


@dataclass
class VMInstance:
    """One tier VM: identity, placement and enforced limits."""

    vm_id: str
    wiki: str          # "wiki-one" | "wiki-two"
    tier: str          # "apache" | "memcached" | "mysql"
    node: str
    cpu_limit: float   # enforced GHz limit (cgroups quota)
    ram_limit: float = 4.0

    def __post_init__(self) -> None:
        if self.cpu_limit <= 0 or self.ram_limit <= 0:
            raise ValueError(f"{self.vm_id}: limits must be positive")


class TestbedCluster:
    """Nodes + VMs + per-node actuators."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, nodes: List[NodeSpec], vms: List[VMInstance]) -> None:
        if not nodes or not vms:
            raise ValueError("cluster needs nodes and VMs")
        self.nodes = {node.name: node for node in nodes}
        if len(self.nodes) != len(nodes):
            raise ValueError("node names must be unique")
        self.vms = {vm.vm_id: vm for vm in vms}
        if len(self.vms) != len(vms):
            raise ValueError("VM ids must be unique")
        for vm in vms:
            if vm.node not in self.nodes:
                raise ValueError(f"VM {vm.vm_id} placed on unknown node {vm.node}")
        self._actuators: Dict[str, SimulatedCgroupsActuator] = {}
        for name, node in self.nodes.items():
            actuator = SimulatedCgroupsActuator(
                {Resource.CPU: node.cpu_capacity, Resource.RAM: node.ram_gb}
            )
            for vm in self.vms_on(name):
                actuator.register_vm(
                    vm.vm_id,
                    {Resource.CPU: vm.cpu_limit, Resource.RAM: vm.ram_limit},
                )
            self._actuators[name] = actuator

    def vms_on(self, node_name: str) -> List[VMInstance]:
        """VMs placed on a node, in id order (stable for reporting)."""
        return sorted(
            (vm for vm in self.vms.values() if vm.node == node_name),
            key=lambda vm: vm.vm_id,
        )

    def apply_cpu_limits(self, window: int, limits: Dict[str, float]) -> None:
        """Apply a batch of CPU limits (vm_id -> GHz) through the actuators."""
        by_node: Dict[str, Dict] = {}
        for vm_id, limit in limits.items():
            vm = self.vms[vm_id]
            by_node.setdefault(vm.node, {})[(vm_id, Resource.CPU)] = limit
        for node_name, node_limits in by_node.items():
            self._actuators[node_name].apply_limits(window, node_limits)
            for (vm_id, _resource), limit in node_limits.items():
                self.vms[vm_id].cpu_limit = limit

    def cpu_limits(self) -> Dict[str, float]:
        return {vm_id: vm.cpu_limit for vm_id, vm in self.vms.items()}
