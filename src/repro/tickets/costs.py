"""Ticket economics: translate ticket counts into operational cost.

The paper motivates ATM with the expense of ticket handling ("a significant
amount of manual labor is required for root-cause analysis"; refs [1], [2]).
This module provides the small cost model an adopter needs to turn the
reproduction's ticket-reduction percentages into money: per-ticket
resolution labor and the (much smaller) cost of the resizing actuations
themselves.

Default constants follow the incident-labor literature the paper cites
(Giurgiu et al., CCGrid'14): a median of roughly an engineer-hour per
resolved incident.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TicketCostModel", "CostBreakdown"]


@dataclass(frozen=True)
class TicketCostModel:
    """Cost constants, all in the same currency unit.

    Attributes
    ----------
    cost_per_ticket:
        Marginal labor cost of inspecting/resolving one usage ticket.
    cost_per_resize_action:
        Cost of one actuated limit change (automation runtime, audit).
    """

    cost_per_ticket: float = 75.0
    cost_per_resize_action: float = 0.25

    def __post_init__(self) -> None:
        for name in ("cost_per_ticket", "cost_per_resize_action"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def cost(self, tickets: int, resize_actions: int = 0) -> float:
        """Total operational cost of a period."""
        if min(tickets, resize_actions) < 0:
            raise ValueError("counts must be non-negative")
        return tickets * self.cost_per_ticket + resize_actions * self.cost_per_resize_action

    def savings(
        self,
        tickets_before: int,
        tickets_after: int,
        resize_actions: int = 0,
    ) -> "CostBreakdown":
        """Net savings of running ATM versus the status quo."""
        before = self.cost(tickets_before)
        after = self.cost(tickets_after, resize_actions=resize_actions)
        return CostBreakdown(
            cost_before=before,
            cost_after=after,
            tickets_avoided=tickets_before - tickets_after,
            resize_actions=resize_actions,
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Result of a savings computation."""

    cost_before: float
    cost_after: float
    tickets_avoided: int
    resize_actions: int

    @property
    def net_savings(self) -> float:
        return self.cost_before - self.cost_after

    @property
    def savings_percent(self) -> float:
        if self.cost_before <= 0:
            return float("nan")
        return 100.0 * self.net_savings / self.cost_before
