"""Tests for ticket monitoring (repro.tickets.monitor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tickets.monitor import per_vm_ticket_counts, ticket_matrix, tickets_for_box
from repro.tickets.policy import TicketPolicy
from repro.trace.model import BoxTrace, Resource
from tests.tickets import ticket_oracle
from tests.tickets.ticket_oracle import count_tickets, count_tickets_for_demand


@pytest.fixture()
def box():
    usage = [
        [70.0, 50.0, 90.0, 65.0],  # hot CPU
        [10.0, 20.0, 30.0, 40.0],  # cool CPU
        [30.0, 30.0, 30.0, 30.0],  # hot RAM
        [61.0, 10.0, 10.0, 10.0],  # cool RAM
    ]
    return BoxTrace("b0", 10.0, 20.0, ("hot", "cool"), (4.0, 4.0), (8.0, 8.0), usage)


class TestTicketMatrix:
    def test_indicator_semantics(self):
        usage = np.array([[59.0, 61.0], [60.0, 80.0]])
        matrix = ticket_matrix(usage, TicketPolicy(60.0))
        assert matrix.tolist() == [[False, True], [False, True]]

    def test_1d_promoted(self):
        assert ticket_matrix(np.array([70.0]), TicketPolicy(60.0)).shape == (1, 1)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            ticket_matrix(np.zeros((2, 2, 2)), TicketPolicy(60.0))

    def test_count(self):
        usage = np.array([[70.0, 70.0, 10.0]])
        assert count_tickets(usage, TicketPolicy(60.0)) == 2


class TestDemandTickets:
    def test_demand_threshold(self):
        policy = TicketPolicy(60.0)
        demand = [5.0, 6.1, 7.0]
        assert count_tickets_for_demand(demand, capacity=10.0, policy=policy) == 2

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            count_tickets_for_demand([1.0], 0.0, TicketPolicy(60.0))

    def test_consistent_with_usage_counting(self, box):
        policy = TicketPolicy(60.0)
        usage, demand = box.usage_matrix(Resource.CPU), box.demand_matrix(Resource.CPU)
        for i, capacity in enumerate(box.vm_cpu_capacities):
            via_usage = int((usage[i] > 60.0).sum())
            via_demand = count_tickets_for_demand(demand[i], capacity, policy)
            assert via_usage == via_demand


class TestBoxHelpers:
    def test_per_vm_counts(self, box):
        counts = per_vm_ticket_counts(box, Resource.CPU, TicketPolicy(60.0))
        assert counts.tolist() == [3, 0]

    def test_records_sorted_and_complete(self, box):
        records = tickets_for_box(box, TicketPolicy(60.0))
        assert len(records) == 4  # 3 CPU on hot + 1 RAM on cool
        windows = [r.window for r in records]
        assert windows == sorted(windows)

    def test_records_fields(self, box):
        records = [
            r for r in tickets_for_box(box, TicketPolicy(60.0)) if r.resource is Resource.RAM
        ]
        assert len(records) == 1
        record = records[0]
        assert record.vm_id == "cool"
        assert record.resource is Resource.RAM
        assert record.window == 0
        assert record.usage_pct == pytest.approx(61.0)

    def test_higher_threshold_fewer_records(self, box):
        low = tickets_for_box(box, TicketPolicy(60.0))
        high = tickets_for_box(box, TicketPolicy(80.0))
        assert len(high) < len(low)

    def test_records_pin_ticket_matrix_semantics(self, box):
        # Pin: record extraction must route through ticket_matrix, the one
        # indicator implementation — it used to restate the comparison
        # inline, which let the two paths drift.
        policy = TicketPolicy(60.0)
        for resource in (Resource.CPU, Resource.RAM):
            usage = box.usage_matrix(resource)
            expected = {
                (box.vm_ids[i], int(t))
                for i, t in np.argwhere(ticket_matrix(usage, policy))
            }
            got = {
                (r.vm_id, r.window)
                for r in tickets_for_box(box, policy)
                if r.resource is resource
            }
            assert got == expected

    def test_threshold_boundary_not_ticketed(self):
        # Exact-threshold usage is NOT a ticket (strict >, Eq. 6); the
        # record path must agree with the matrix path on the boundary.
        boundary_box = BoxTrace(
            "b1", 10.0, 20.0, ("edge",), (4.0,), (8.0,), [[60.0, 60.0001], [0.0, 0.0]]
        )
        records = tickets_for_box(boundary_box, TicketPolicy(60.0))
        assert [(r.window, r.usage_pct) for r in records] == [(1, 60.0001)]


# ------------------------------------------------ sorted columns vs. oracle
_USAGE = st.one_of(
    st.sampled_from([0.0, -0.0, 59.999, 60.0, 60.0001, 75.0, 100.0]), st.floats(0.0, 100.0)
)


@st.composite
def _boxes(draw):
    m = draw(st.integers(1, 4))
    t = draw(st.integers(1, 10))
    # Ids that sort differently from their row order, duplicates included.
    vm_ids = draw(st.lists(st.sampled_from(["vm2", "vm10", "a", "B", "b"]), min_size=m, max_size=m))
    usage = np.array(draw(st.lists(_USAGE, min_size=2 * m * t, max_size=2 * m * t)))
    return BoxTrace("box", 10.0, 20.0, tuple(vm_ids), (4.0,) * m, (8.0,) * m, usage.reshape(2 * m, t))


class TestRecordsMatchOracle:
    """Records built from sorted columns equal the record-by-record oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_boxes(), st.sampled_from([30.0, 60.0, 99.0]))
    def test_same_records_in_the_same_order(self, box, threshold):
        policy = TicketPolicy(threshold)
        got = tickets_for_box(box, policy)
        want = ticket_oracle.tickets_for_box(box, policy)
        assert got == want
        # Field for field, down to types and the sign of a zero.
        as_tuples = [
            (r.box_id, r.vm_id, r.resource, repr(r.window), repr(r.usage_pct)) for r in got
        ]
        assert as_tuples == [
            (r.box_id, r.vm_id, r.resource, repr(r.window), repr(r.usage_pct)) for r in want
        ]
