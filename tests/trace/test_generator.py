"""Tests for the synthetic fleet generator (repro.trace.generator)."""

import numpy as np
import pytest

from repro.tickets import correlation_cdfs, fleet_ticket_summary
from repro.trace.generator import FleetConfig, generate_box, generate_fleet
from repro.trace.model import Resource


class TestConfigValidation:
    def test_defaults_valid(self):
        FleetConfig()

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            FleetConfig(n_boxes=0)

    def test_rejects_bad_vm_bounds(self):
        with pytest.raises(ValueError):
            FleetConfig(min_vms_per_box=10, max_vms_per_box=5)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            FleetConfig(cpu_hot_box_fraction=1.5)

    def test_n_windows(self):
        assert FleetConfig(days=2, windows_per_day=96).n_windows == 192


class TestDeterminism:
    def test_same_seed_same_fleet(self):
        cfg = FleetConfig(n_boxes=3, days=1, seed=42)
        a = generate_fleet(cfg)
        b = generate_fleet(cfg)
        for box_a, box_b in zip(a, b):
            assert box_a.box_id == box_b.box_id
            assert box_a.vm_ids == box_b.vm_ids
            np.testing.assert_array_equal(box_a.usage, box_b.usage)

    def test_different_seed_different_fleet(self):
        a = generate_fleet(FleetConfig(n_boxes=2, days=1, seed=1))
        b = generate_fleet(FleetConfig(n_boxes=2, days=1, seed=2))
        assert not np.allclose(a.boxes[0].usage[0], b.boxes[0].usage[0])

    def test_boxes_independent_of_fleet(self):
        """A box can be regenerated alone, bit-identical to its fleet copy."""
        cfg = FleetConfig(n_boxes=4, days=1, seed=9)
        fleet = generate_fleet(cfg)
        box2 = generate_box(2, cfg)
        assert box2.usage.tobytes() == fleet.boxes[2].usage.tobytes()


class TestStructure:
    def test_box_shapes(self):
        cfg = FleetConfig(n_boxes=5, days=2, seed=3)
        fleet = generate_fleet(cfg)
        for box in fleet:
            assert box.n_windows == 192
            assert cfg.min_vms_per_box <= box.n_vms <= cfg.max_vms_per_box
            assert box.cpu_capacity > 0
            # headroom >= 1: the current allocations are always feasible.
            assert sum(box.vm_cpu_capacities) <= box.cpu_capacity + 1e-9

    def test_consolidation_level(self):
        fleet = generate_fleet(FleetConfig(n_boxes=60, days=1, seed=4))
        assert 7.0 < np.mean([box.n_vms for box in fleet]) < 13.0

    def test_usage_within_validation_bounds(self):
        fleet = generate_fleet(FleetConfig(n_boxes=10, days=1, seed=5))
        for box in fleet:
            assert box.usage.min() >= 0.0


class TestCalibration:
    """The generator must track the paper's published aggregates (Fig. 2/3)."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(FleetConfig(n_boxes=120, days=1, seed=2016))

    def test_ticket_box_shares(self, fleet):
        summary = fleet_ticket_summary(fleet, first_windows=96)
        cpu60 = summary.row(Resource.CPU, 60.0)["pct_boxes"]
        ram60 = summary.row(Resource.RAM, 60.0)["pct_boxes"]
        ram80 = summary.row(Resource.RAM, 80.0)["pct_boxes"]
        assert 45.0 < cpu60 < 72.0      # paper: 57%
        assert 25.0 < ram60 < 50.0      # paper: 38%
        assert ram80 < 25.0             # paper: 10%
        assert cpu60 > ram60            # CPU tickets touch more boxes

    def test_ticket_count_decay_is_flat(self, fleet):
        summary = fleet_ticket_summary(fleet, first_windows=96)
        cpu = [summary.row(Resource.CPU, t)["mean_tickets"] for t in (60.0, 80.0)]
        assert cpu[1] > 0.45 * cpu[0]   # paper: 29/39 = 0.74

    def test_culprit_concentration(self, fleet):
        summary = fleet_ticket_summary(fleet, first_windows=96)
        for resource in (Resource.CPU, Resource.RAM):
            culprits = summary.row(resource, 60.0)["mean_culprits"]
            assert 1.0 <= culprits <= 2.5

    def test_correlation_structure(self, fleet):
        means = correlation_cdfs(fleet, first_windows=96).means()
        assert 0.15 < means["intra_cpu"] < 0.40      # paper 0.26
        assert 0.12 < means["intra_ram"] < 0.38      # paper 0.24
        assert 0.15 < means["inter_all"] < 0.42      # paper 0.30
        assert 0.50 < means["inter_pair"] < 0.75     # paper 0.62
        assert means["inter_pair"] > means["inter_all"]
