"""Tests for the Section II characterization (repro.tickets.characterization)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tickets.characterization import (
    box_ticket_stats,
    correlation_cdfs,
    culprit_vm_count,
    fleet_ticket_summary,
)
from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, FleetTrace, Resource


class TestCulpritCount:
    def test_no_tickets_zero_culprits(self):
        assert culprit_vm_count([0, 0, 0]) == 0

    def test_single_dominant_vm(self):
        assert culprit_vm_count([100, 1, 1]) == 1

    def test_even_spread_needs_most_vms(self):
        assert culprit_vm_count([10, 10, 10, 10, 10]) == 4  # 80% of 50 = 40

    def test_exact_boundary(self):
        # 80% of 10 = 8; top VM has exactly 8.
        assert culprit_vm_count([8, 1, 1]) == 1

    def test_two_culprits(self):
        assert culprit_vm_count([50, 45, 3, 2]) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=12))
    def test_bounds(self, counts):
        culprits = culprit_vm_count(counts)
        if sum(counts) == 0:
            assert culprits == 0
        else:
            assert 1 <= culprits <= len(counts)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=2, max_size=10))
    def test_greedy_coverage_is_sufficient(self, counts):
        if sum(counts) == 0:
            return
        k = culprit_vm_count(counts)
        top = sorted(counts, reverse=True)[:k]
        assert sum(top) >= 0.8 * sum(counts) - 1e-9


def _constant_box(box_id, cpu_levels, n=8):
    m = len(cpu_levels)
    usage = [np.full(n, level) for level in cpu_levels] + [np.full(n, 20.0)] * m
    return BoxTrace(
        box_id, 10.0, 20.0, tuple(f"{box_id}-vm{i}" for i in range(m)),
        (2.0,) * m, (4.0,) * m, usage,
    )


class TestBoxStats:
    def test_counts_and_culprits(self):
        box = _constant_box("b", [70.0, 10.0, 10.0])
        stats = box_ticket_stats(box, Resource.CPU, TicketPolicy(60.0))
        assert stats.total_tickets == 8
        assert stats.per_vm == (8, 0, 0)
        assert stats.culprits == 1
        assert stats.has_tickets

    def test_first_windows_scoping(self):
        box = _constant_box("b", [70.0], n=8)
        stats = box_ticket_stats(box, Resource.CPU, TicketPolicy(60.0), first_windows=3)
        assert stats.total_tickets == 3

    def test_first_windows_beyond_length(self):
        box = _constant_box("b", [70.0], n=8)
        stats = box_ticket_stats(box, Resource.CPU, TicketPolicy(60.0), first_windows=99)
        assert stats.total_tickets == 8


class TestFleetSummary:
    def test_summary_on_constructed_fleet(self):
        fleet = FleetTrace(
            [
                _constant_box("a", [70.0, 10.0]),
                _constant_box("b", [10.0, 10.0]),
            ]
        )
        summary = fleet_ticket_summary(fleet)
        row = summary.row(Resource.CPU, 60.0)
        assert row["pct_boxes"] == 50.0
        assert row["mean_tickets"] == 4.0  # (8 + 0) / 2
        assert row["mean_culprits"] == 1.0  # only over the ticketed box

    def test_monotone_in_threshold(self, small_fleet):
        summary = fleet_ticket_summary(small_fleet, first_windows=96)
        for resource in (Resource.CPU, Resource.RAM):
            rows = [summary.row(resource, t) for t in (60.0, 70.0, 80.0)]
            assert rows[0]["pct_boxes"] >= rows[1]["pct_boxes"] >= rows[2]["pct_boxes"]
            assert rows[0]["mean_tickets"] >= rows[1]["mean_tickets"]


class TestCorrelationCdfs:
    def test_cdfs_cover_all_measures(self, small_fleet):
        cdfs = correlation_cdfs(small_fleet, first_windows=96)
        means = cdfs.means()
        assert set(means) == {"intra_cpu", "intra_ram", "inter_all", "inter_pair"}
        for value in means.values():
            assert -1.0 <= value <= 1.0

    def test_single_vm_boxes_rejected_for_intra(self):
        box = _constant_box("solo", [50.0])
        fleet = FleetTrace([box])
        with pytest.raises(ValueError, match="intra"):
            correlation_cdfs(fleet)
