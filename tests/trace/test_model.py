"""Tests for the trace data model (repro.trace.model)."""

import numpy as np
import pytest

from repro.trace.model import MAX_USAGE_PCT, BoxTrace, FleetTrace, Resource, VMTrace


def make_vm(vm_id="vm0", n=8, cpu_cap=4.0, ram_cap=8.0, level=50.0):
    return VMTrace(
        vm_id=vm_id,
        cpu_capacity=cpu_cap,
        ram_capacity=ram_cap,
        cpu_usage=np.full(n, level),
        ram_usage=np.full(n, level / 2),
    )


def make_box(box_id="box0", m=3, n=8):
    vms = [make_vm(f"{box_id}-vm{i}", n=n) for i in range(m)]
    return BoxTrace(box_id=box_id, cpu_capacity=20.0, ram_capacity=40.0, vms=vms)


class TestVMTrace:
    def test_demand_is_usage_times_capacity(self):
        vm = make_vm(level=50.0, cpu_cap=4.0)
        assert vm.demand(Resource.CPU) == pytest.approx(np.full(8, 2.0))
        assert vm.demand(Resource.RAM) == pytest.approx(np.full(8, 2.0))

    def test_usage_above_entitlement_allowed(self):
        vm = VMTrace("v", 1.0, 1.0, np.full(4, 150.0), np.full(4, 10.0))
        assert vm.demand(Resource.CPU)[0] == pytest.approx(1.5)

    def test_usage_beyond_cap_rejected(self):
        with pytest.raises(ValueError):
            VMTrace("v", 1.0, 1.0, np.full(4, MAX_USAGE_PCT + 1), np.zeros(4))

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError):
            VMTrace("v", 1.0, 1.0, np.array([-5.0]), np.array([0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            VMTrace("v", 1.0, 1.0, np.array([np.nan]), np.array([0.0]))

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            VMTrace("v", 0.0, 1.0, np.zeros(2), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VMTrace("v", 1.0, 1.0, np.zeros(3), np.zeros(4))


class TestBoxTrace:
    def test_usage_matrix_shapes(self):
        box = make_box(m=3, n=8)
        assert box.usage_matrix(Resource.CPU).shape == (3, 8)
        assert box.usage_matrix().shape == (6, 8)

    def test_demand_matrix_consistent_with_series(self):
        box = make_box(m=2)
        full = box.demand_matrix()
        # Stacked rows: every VM's CPU series, then every VM's RAM series.
        rows = [vm.demand(res) for res in (Resource.CPU, Resource.RAM) for vm in box.vms]
        for idx, row in enumerate(rows):
            assert full[idx] == pytest.approx(row)

    def test_allocations(self):
        box = make_box(m=3)
        assert box.allocations(Resource.CPU) == pytest.approx([4.0, 4.0, 4.0])

    def test_split_windows(self):
        box = make_box(n=8)
        head, tail = box.split_windows(5)
        assert head.n_windows == 5
        assert tail.n_windows == 3
        assert head.box_id == tail.box_id == box.box_id

    def test_split_windows_bounds(self):
        box = make_box(n=8)
        with pytest.raises(ValueError):
            box.split_windows(0)
        with pytest.raises(ValueError):
            box.split_windows(8)

    def test_split_deep_copies(self):
        box = make_box(n=8)
        head, _ = box.split_windows(4)
        head.vms[0].cpu_usage[0] = 99.0
        assert box.vms[0].cpu_usage[0] != 99.0

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            BoxTrace("b", 1.0, 1.0, [])

    def test_inconsistent_lengths_rejected(self):
        vms = [make_vm("a", n=8), make_vm("b", n=9)]
        with pytest.raises(ValueError):
            BoxTrace("b", 1.0, 1.0, vms)

    def test_windows_per_day(self):
        assert make_box().windows_per_day == 96


class TestFleetTrace:
    def test_summary(self):
        fleet = FleetTrace([make_box("a", m=2), make_box("b", m=4)])
        assert fleet.n_boxes == 2
        assert fleet.n_vms == 6
        assert fleet.n_series == 12

    def test_box_by_id(self):
        fleet = FleetTrace([make_box("a"), make_box("b")])
        assert fleet.box_by_id("b").box_id == "b"
        with pytest.raises(KeyError):
            fleet.box_by_id("zzz")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            FleetTrace([make_box("a"), make_box("a")])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetTrace([])

    def test_iteration(self):
        fleet = FleetTrace([make_box("a"), make_box("b")])
        assert [box.box_id for box in fleet] == ["a", "b"]
