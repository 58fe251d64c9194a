"""Virtual resource resizing (paper Section IV).

Given per-VM demand forecasts for a resizing window (one day = 96 ticketing
windows), choose per-VM capacities minimizing usage tickets subject to the
box capacity:

* :mod:`repro.resizing.problem` — the optimization problem R and ticket
  accounting for any allocation.
* :mod:`repro.resizing.mckp` — the Lemma 4.1 transform into a multi-choice
  knapsack problem with the ε discretization factor.
* :mod:`repro.resizing.greedy` — the paper's greedy MTRV solver.
* :mod:`repro.resizing.exact` — the dynamic-programming exact solver used
  to validate the greedy's optimality gap.
* :mod:`repro.resizing.baselines` — max-min fairness and the "stingy"
  (peak-demand) allocator.
* :mod:`repro.resizing.actuation` — the cgroups-style actuator interface.
* :mod:`repro.resizing.evaluate` — per-box and fleet-level ticket-reduction
  evaluation (Figs. 8 and 10).
"""

from repro.resizing.baselines import max_min_fairness_allocation, stingy_allocation
from repro.resizing.evaluate import (
    BoxReduction,
    FleetReduction,
    evaluate_fleet_resizing,
    reduction_percent,
)
from repro.resizing.exact import solve_dp
from repro.resizing.greedy import solve_greedy
from repro.resizing.mckp import MckpGroup, MckpInstance, MckpSolution, build_mckp
from repro.resizing.problem import ResizingProblem, tickets_for_allocation

__all__ = [
    "BoxReduction",
    "FleetReduction",
    "MckpGroup",
    "MckpInstance",
    "MckpSolution",
    "ResizingProblem",
    "build_mckp",
    "evaluate_fleet_resizing",
    "max_min_fairness_allocation",
    "reduction_percent",
    "solve_dp",
    "solve_greedy",
    "stingy_allocation",
    "tickets_for_allocation",
]
