"""Tests for the ticket cost model (repro.tickets.costs)."""

import numpy as np
import pytest

from repro.tickets.costs import CostBreakdown, TicketCostModel


class TestCostModel:
    def test_cost_formula(self):
        model = TicketCostModel(cost_per_ticket=10.0, cost_per_resize_action=0.5)
        assert model.cost(tickets=4, resize_actions=6) == pytest.approx(40.0 + 3.0)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            TicketCostModel(cost_per_ticket=-1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TicketCostModel().cost(-1)

    def test_savings(self):
        model = TicketCostModel(cost_per_ticket=100.0, cost_per_resize_action=1.0)
        breakdown = model.savings(
            tickets_before=50, tickets_after=10, resize_actions=20
        )
        assert breakdown.tickets_avoided == 40
        assert breakdown.net_savings == pytest.approx(5000.0 - 1020.0)
        assert breakdown.savings_percent == pytest.approx(100 * 3980.0 / 5000.0)

    def test_savings_percent_nan_when_free(self):
        model = TicketCostModel(0.0, 0.0)
        assert np.isnan(model.savings(0, 0).savings_percent)

    def test_savings_percent_nan_on_zero_cost_baseline(self):
        # A ticket-free "before" period has no baseline to save against,
        # even when the "after" period spends money on actuations.
        model = TicketCostModel(cost_per_ticket=10.0, cost_per_resize_action=1.0)
        breakdown = model.savings(tickets_before=0, tickets_after=0,
                                  resize_actions=7)
        assert breakdown.cost_before == 0.0
        assert breakdown.net_savings == pytest.approx(-7.0)
        assert np.isnan(breakdown.savings_percent)

    def test_resize_actions_billed_only_after(self):
        # Asymmetry pin: actuations are a cost of running ATM, so they hit
        # the "after" side only — never the status-quo baseline.
        model = TicketCostModel(cost_per_ticket=10.0, cost_per_resize_action=2.0)
        breakdown = model.savings(tickets_before=3, tickets_after=3,
                                  resize_actions=5)
        assert breakdown.cost_before == pytest.approx(30.0)
        assert breakdown.cost_after == pytest.approx(30.0 + 10.0)
        assert breakdown.net_savings == pytest.approx(-10.0)

    def test_breakdown_roundtrip_fields(self):
        breakdown = CostBreakdown(
            cost_before=100.0, cost_after=40.0, tickets_avoided=2,
            resize_actions=1,
        )
        assert breakdown.net_savings == pytest.approx(60.0)
        assert breakdown.savings_percent == pytest.approx(60.0)

    def test_actuation_cost_can_outweigh_small_gains(self):
        model = TicketCostModel(cost_per_ticket=1.0, cost_per_resize_action=10.0)
        breakdown = model.savings(tickets_before=5, tickets_after=4, resize_actions=3)
        assert breakdown.net_savings < 0

    def test_defaults_reasonable(self):
        model = TicketCostModel()
        assert model.cost_per_ticket > model.cost_per_resize_action
