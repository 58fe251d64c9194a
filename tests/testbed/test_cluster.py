"""Tests for the testbed cluster model (repro.testbed.cluster)."""

import pytest

from repro.testbed.cluster import NodeSpec, TestbedCluster, VMInstance
from repro.trace.model import Resource


def tiny_cluster():
    nodes = [NodeSpec("n1"), NodeSpec("n2")]
    vms = [
        VMInstance("a", "wiki-one", "apache", "n1", cpu_limit=3.0),
        VMInstance("b", "wiki-one", "mysql", "n1", cpu_limit=3.0),
        VMInstance("c", "wiki-two", "apache", "n2", cpu_limit=3.0),
    ]
    return TestbedCluster(nodes, vms)


class TestNodeSpec:
    def test_capacity_formula(self):
        node = NodeSpec("n", cores=4, core_ghz=3.6, smt_factor=1.25)
        assert node.cpu_capacity == pytest.approx(0.95 * 4 * 3.6 * 1.25)


class TestClusterConstruction:
    def test_vms_on_sorted(self):
        cluster = tiny_cluster()
        assert [vm.vm_id for vm in cluster.vms_on("n1")] == ["a", "b"]

    def test_unknown_node_rejected(self):
        nodes = [NodeSpec("n1")]
        vms = [VMInstance("a", "w", "apache", "ghost", cpu_limit=1.0)]
        with pytest.raises(ValueError, match="unknown node"):
            TestbedCluster(nodes, vms)

    def test_duplicate_vm_ids_rejected(self):
        nodes = [NodeSpec("n1")]
        vms = [
            VMInstance("a", "w", "apache", "n1", cpu_limit=1.0),
            VMInstance("a", "w", "mysql", "n1", cpu_limit=1.0),
        ]
        with pytest.raises(ValueError, match="unique"):
            TestbedCluster(nodes, vms)

    def test_over_capacity_placement_rejected(self):
        nodes = [NodeSpec("n1")]
        vms = [VMInstance(f"v{i}", "w", "apache", "n1", cpu_limit=10.0) for i in range(3)]
        with pytest.raises(ValueError, match="exceed host"):
            TestbedCluster(nodes, vms)

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            VMInstance("a", "w", "apache", "n1", cpu_limit=0.0)


class TestLimitManagement:
    def test_apply_limits_updates_vms(self):
        cluster = tiny_cluster()
        cluster.apply_cpu_limits(2, {"a": 5.0, "b": 2.0})
        assert cluster.vms["a"].cpu_limit == 5.0
        assert cluster.cpu_limits()["b"] == 2.0

    def test_actuator_log_records(self):
        cluster = tiny_cluster()
        cluster.apply_cpu_limits(1, {"a": 4.0})
        # The node's actuator records the applied limit.
        assert cluster._actuators["n1"].current_limit("a", Resource.CPU) == 4.0

    def test_budget_enforced_per_node(self):
        cluster = tiny_cluster()
        capacity = cluster.nodes["n1"].cpu_capacity
        with pytest.raises(ValueError, match="exceed host"):
            cluster.apply_cpu_limits(0, {"a": capacity, "b": capacity})
