"""Tests for ticket policies (repro.tickets.policy)."""

import numpy as np
import pytest

from repro.resizing.problem import ResizingProblem, per_vm_tickets
from repro.tickets.monitor import ticket_matrix
from repro.tickets.policy import DEFAULT_POLICY, DEFAULT_THRESHOLDS, TicketPolicy


class TestTicketPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.threshold_pct == 60.0
        assert DEFAULT_POLICY.window_minutes == 15
        assert DEFAULT_POLICY.alpha == pytest.approx(0.6)

    def test_thresholds_constant(self):
        assert DEFAULT_THRESHOLDS == (60.0, 70.0, 80.0)

    def test_violates_usage_strict(self):
        # The monitor tickets usage strictly above the threshold.
        flags = ticket_matrix(np.array([60.0, 60.01]), TicketPolicy(60.0))
        assert flags.tolist() == [[False, True]]

    def test_violates_demand(self):
        # Constraint (6): a demand tickets when it exceeds alpha * capacity.
        policy = TicketPolicy(60.0)
        problem = ResizingProblem(
            demands=np.array([[6.1, 6.0]]), capacity=10.0, alpha=policy.alpha
        )
        assert per_vm_tickets(problem, [10.0]).tolist() == [1]

    def test_violates_demand_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ResizingProblem(demands=np.array([[1.0]]), capacity=0.0)

    @pytest.mark.parametrize("bad", [0.0, 100.0, -5.0, 150.0])
    def test_invalid_threshold(self, bad):
        with pytest.raises(ValueError):
            TicketPolicy(bad)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TicketPolicy(60.0, window_minutes=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_POLICY.threshold_pct = 70.0
