"""Tests for the trace data model (repro.trace.model)."""

import mmap
import pickle

import numpy as np
import pytest

from repro.store.shards import open_box, write_box_shard
from repro.trace.model import MAX_USAGE_PCT, BoxTrace, FleetTrace, Resource


def make_box(box_id="box0", m=3, n=8, cpu_cap=4.0, ram_cap=8.0, level=50.0):
    """A box of ``m`` identical VMs: CPU at ``level``, RAM at half of it."""
    usage = np.vstack([np.full((m, n), level), np.full((m, n), level / 2)])
    return BoxTrace(
        box_id=box_id,
        cpu_capacity=20.0,
        ram_capacity=40.0,
        vm_ids=tuple(f"{box_id}-vm{i}" for i in range(m)),
        vm_cpu_capacities=(cpu_cap,) * m,
        vm_ram_capacities=(ram_cap,) * m,
        usage=usage,
    )


def one_vm_box(cpu, ram, cpu_cap=1.0, ram_cap=1.0):
    """A one-VM box from its CPU and RAM rows."""
    return BoxTrace("b", 10.0, 10.0, ("v",), (cpu_cap,), (ram_cap,), [cpu, ram])


class TestVMTrace:
    """Each VM's rows of the matrix: demand, capacity and range checks."""

    def test_demand_is_usage_times_capacity(self):
        box = make_box(m=1, level=50.0, cpu_cap=4.0)
        assert box.demand_matrix(Resource.CPU)[0] == pytest.approx(np.full(8, 2.0))
        assert box.demand_matrix(Resource.RAM)[0] == pytest.approx(np.full(8, 2.0))

    def test_usage_above_entitlement_allowed(self):
        box = one_vm_box(np.full(4, 150.0), np.full(4, 10.0))
        assert box.demand_matrix(Resource.CPU)[0, 0] == pytest.approx(1.5)

    def test_usage_beyond_cap_rejected(self):
        with pytest.raises(ValueError, match="percentages"):
            one_vm_box(np.full(4, MAX_USAGE_PCT + 1), np.zeros(4))

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError, match="percentages"):
            one_vm_box(np.array([-5.0]), np.array([0.0]))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                one_vm_box(np.array([bad]), np.array([0.0]))

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            one_vm_box(np.zeros(2), np.zeros(2), cpu_cap=0.0)
        with pytest.raises(ValueError, match="capacity"):
            one_vm_box(np.zeros(2), np.zeros(2), ram_cap=-1.0)

    def test_length_mismatch_rejected(self):
        # One VM owns exactly two rows (CPU, RAM); a third has no owner.
        with pytest.raises(ValueError, match="shape"):
            BoxTrace("b", 1.0, 1.0, ("v",), (1.0,), (1.0,), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="shape"):
            BoxTrace("b", 1.0, 1.0, ("v",), (1.0,), (1.0,), np.zeros((2, 0)))


class TestBoxTrace:
    def test_usage_matrix_shapes(self):
        box = make_box(m=3, n=8)
        assert box.usage_matrix(Resource.CPU).shape == (3, 8)
        assert box.usage_matrix().shape == (6, 8)

    def test_rows_are_cpu_then_ram(self):
        box = make_box(m=3)
        assert box.rows(Resource.CPU) == slice(0, 3)
        assert box.rows(Resource.RAM) == slice(3, 6)

    def test_demand_matrix_consistent_with_series(self):
        box = make_box(m=2)
        full = box.demand_matrix()
        # Stacked rows: every VM's CPU series, then every VM's RAM series,
        # each the per-VM ``usage / 100 * capacity`` to the bit.
        caps = box.vm_cpu_capacities + box.vm_ram_capacities
        for idx, cap in enumerate(caps):
            assert full[idx].tobytes() == (box.usage[idx] / 100.0 * cap).tobytes()

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

    def test_split_halves_are_readonly(self):
        box = make_box(n=8)
        for half in box.split_windows(4):
            assert not half.usage.flags.writeable
            with pytest.raises(ValueError):
                half.usage[0, 0] = 99.0
        assert box.usage[0, 0] == 50.0

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="no VMs"):
            BoxTrace("b", 1.0, 1.0, (), (), (), np.zeros((0, 4)))

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            BoxTrace("b", 1.0, 1.0, ("a", "b"), (1.0, 1.0), (1.0, 1.0),
                     [np.zeros(8), np.zeros(9), np.zeros(8), np.zeros(9)])

    def test_capacity_count_must_match_vms(self):
        with pytest.raises(ValueError, match="capacity"):
            BoxTrace("b", 1.0, 1.0, ("a", "b"), (1.0,), (1.0, 1.0), np.zeros((4, 2)))

    def test_nonpositive_box_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacities must be positive"):
            BoxTrace("b", 0.0, 1.0, ("v",), (1.0,), (1.0,), np.zeros((2, 2)))

    def test_windows_per_day(self):
        assert make_box().windows_per_day == 96


class TestUsageMatrix:
    """One validation per box: no copy in range, a clip only within round-off."""

    def test_in_range_matrix_kept_without_copy_and_readonly(self):
        usage = np.full((2, 6), 40.0)
        box = BoxTrace("b", 1.0, 1.0, ("v",), (1.0,), (1.0,), usage)
        assert np.shares_memory(box.usage, usage)
        assert not box.usage.flags.writeable
        with pytest.raises(ValueError):
            box.usage[0, 0] = 1.0
        assert usage.flags.writeable  # the caller's array is left alone

    def test_round_off_clipped_and_negative_zero_kept(self):
        usage = np.array([[-5e-10, -0.0, 1.0], [MAX_USAGE_PCT + 5e-10, 2.0, 3.0]])
        box = BoxTrace("b", 1.0, 1.0, ("v",), (1.0,), (1.0,), usage)
        assert box.usage[0, 0] == 0.0 and not np.signbit(box.usage[0, 0])
        assert np.signbit(box.usage[0, 1])
        assert box.usage[1, 0] == MAX_USAGE_PCT
        assert usage[0, 0] == -5e-10  # clipped into a copy, not in place

    def test_unpickled_box_is_rebuilt_readonly(self):
        # Pool workers receive pickled boxes; they must not be writable there.
        box = make_box(m=2, n=5)
        copy = pickle.loads(pickle.dumps(box))
        assert not copy.usage.flags.writeable
        assert copy.usage.tobytes() == box.usage.tobytes()
        assert (copy.vm_ids, copy.vm_cpu_capacities) == (box.vm_ids, box.vm_cpu_capacities)

    def test_shard_view_shares_the_mapping(self, tmp_path):
        box = make_box(m=2, n=5)
        view = open_box(tmp_path, write_box_shard(box, tmp_path))
        mapping = view.usage
        while not isinstance(mapping, mmap.mmap):
            assert mapping is not None, "the view is not backed by a file mapping"
            mapping = mapping.obj if isinstance(mapping, memoryview) else mapping.base
        assert not view.usage.flags.owndata
        assert not view.usage.flags.writeable
        assert np.shares_memory(view.usage, np.frombuffer(mapping, np.uint8))
        np.testing.assert_array_equal(view.usage, box.usage)


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
