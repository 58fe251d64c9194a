"""Tests for incident grouping (repro.tickets.incidents)."""

import numpy as np
import pytest

from repro.tickets.incidents import (
    fleet_incident_stats,
    group_incidents,
    incidents_for_box,
)
from repro.tickets.monitor import TicketRecord
from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, FleetTrace, Resource


def record(window, vm="vm0", box="b0", resource=Resource.CPU):
    return TicketRecord(
        box_id=box, vm_id=vm, resource=resource, window=window, usage_pct=80.0
    )


class TestGroupIncidents:
    def test_empty(self):
        assert group_incidents([]) == []

    def test_contiguous_tickets_one_incident(self):
        incidents = group_incidents([record(1), record(2), record(3)])
        assert len(incidents) == 1
        assert incidents[0].n_tickets == 3
        assert incidents[0].duration_windows == 3

    def test_gap_splits_incidents(self):
        incidents = group_incidents([record(1), record(2), record(10)])
        assert len(incidents) == 2
        assert incidents[0].n_tickets == 2
        assert incidents[1].start_window == 10

    def test_max_gap_bridges(self):
        incidents = group_incidents([record(1), record(4)], max_gap_windows=3)
        assert len(incidents) == 1

    def test_simultaneous_vms_merge(self):
        incidents = group_incidents([record(5, vm="a"), record(5, vm="b")])
        assert len(incidents) == 1
        assert incidents[0].n_vms == 2
        assert incidents[0].is_spatial

    def test_resources_listed(self):
        incidents = group_incidents(
            [record(1, resource=Resource.CPU), record(1, resource=Resource.RAM)]
        )
        assert {t.resource for t in incidents[0].tickets} == {Resource.CPU, Resource.RAM}

    def test_multiple_boxes_rejected(self):
        with pytest.raises(ValueError, match="multiple boxes"):
            group_incidents([record(1, box="a"), record(1, box="b")])

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            group_incidents([record(1)], max_gap_windows=-1)

    def test_unsorted_input_handled(self):
        incidents = group_incidents([record(9), record(1), record(2)])
        assert len(incidents) == 2

    def test_gap_anchor_resets_on_new_incident(self):
        # Regression: the linkage anchor (``last_window``) used to carry
        # across incident boundaries, so after a split every following
        # record was measured against the *previous* incident's windows
        # and got spuriously split off.
        incidents = group_incidents([record(0), record(10), record(11)])
        assert len(incidents) == 2
        assert incidents[1].start_window == 10
        assert incidents[1].n_tickets == 2

    def test_duplicate_window_multi_vm_after_split(self):
        # Two VMs ticketing in the same window after a gap must land in
        # one spatial incident, not one incident per record.
        records = [
            record(0, vm="a"),
            record(5, vm="a"),
            record(5, vm="b"),
        ]
        incidents = group_incidents(records)
        assert len(incidents) == 2
        assert incidents[1].n_vms == 2
        assert incidents[1].is_spatial

    def test_duplicate_window_multi_resource_after_split(self):
        records = [
            record(0),
            record(7, resource=Resource.CPU),
            record(7, resource=Resource.RAM),
        ]
        incidents = group_incidents(records)
        assert len(incidents) == 2
        assert {t.resource for t in incidents[1].tickets} == {Resource.CPU, Resource.RAM}

    def test_zero_gap_strict_adjacency(self):
        # max_gap_windows=0 merges only same-window records; every window
        # stands alone, including duplicate-window pairs after a split.
        records = [record(3, vm="a"), record(3, vm="b"),
                   record(4, vm="a"), record(4, vm="b")]
        incidents = group_incidents(records, max_gap_windows=0)
        assert len(incidents) == 2
        assert [i.n_tickets for i in incidents] == [2, 2]
        assert all(i.n_vms == 2 for i in incidents)

    def test_shuffle_invariance(self):
        # Property: grouping sorts internally, so any input permutation
        # yields the same incident structure.
        base = [
            record(w, vm=vm, resource=res)
            for w in (0, 1, 5, 6, 6, 12)
            for vm in ("a", "b")
            for res in (Resource.CPU, Resource.RAM)
        ]
        reference = group_incidents(base)
        rng = np.random.default_rng(7)
        for _ in range(10):
            shuffled = list(base)
            rng.shuffle(shuffled)
            incidents = group_incidents(shuffled)
            assert len(incidents) == len(reference)
            assert [i.n_tickets for i in incidents] == [
                i.n_tickets for i in reference
            ]
            assert [(i.start_window, i.end_window) for i in incidents] == [
                (i.start_window, i.end_window) for i in reference
            ]


class TestBoxAndFleet:
    @pytest.fixture()
    def storm_box(self):
        """Two VMs that cross the threshold in the same windows (Fig. 1)."""
        hot = np.full(12, 20.0)
        hot[4:7] = 80.0
        calm = np.full(12, 10.0)
        return BoxTrace(
            "storm", 10.0, 20.0, ("v1", "v2"), (2.0, 2.0), (4.0, 4.0),
            [hot, hot, calm, calm],
        )

    def test_storm_is_one_spatial_incident(self, storm_box):
        incidents = incidents_for_box(storm_box, TicketPolicy(60.0))
        assert len(incidents) == 1
        assert incidents[0].n_tickets == 6
        assert incidents[0].is_spatial

    def test_fleet_stats(self, storm_box):
        fleet = FleetTrace([storm_box])
        stats = fleet_incident_stats(fleet, TicketPolicy(60.0))
        assert stats["tickets"] == 6
        assert stats["incidents"] == 1
        assert stats["tickets_per_incident"] == pytest.approx(6.0)
        assert stats["spatial_incident_share"] == 1.0

    def test_fleet_stats_on_synthetic_fleet(self, small_fleet):
        stats = fleet_incident_stats(small_fleet, TicketPolicy(60.0))
        assert stats["tickets"] >= stats["incidents"] > 0
        # The generator's spatial correlation should make some incidents
        # span multiple VMs, the paper's root-cause-difficulty signal.
        assert stats["tickets_per_incident"] > 1.0

    def test_no_tickets_fleet(self):
        calm = BoxTrace("calm", 10.0, 20.0, ("v",), (2.0,), (4.0,), np.full((2, 8), 10.0))
        stats = fleet_incident_stats(FleetTrace([calm]), TicketPolicy(60.0))
        assert stats["incidents"] == 0
        # Undefined ratios are None (JSON null), not NaN — ``json.dumps``
        # used to emit the non-standard literal ``NaN`` here.
        assert stats["tickets_per_incident"] is None
        assert stats["spatial_incident_share"] is None
        import json

        assert "NaN" not in json.dumps(stats)
