"""repro — reproduction of "Managing Data Center Tickets: Prediction and
Active Sizing" (Xue, Birke, Chen, Smirni; DSN 2016).

The package implements the paper's ATM (Active Ticket Managing) system and
every substrate its evaluation depends on:

* :mod:`repro.trace` — trace data model and a calibrated synthetic fleet
  generator standing in for the proprietary IBM production trace.
* :mod:`repro.tickets` — ticketing policies, monitoring, and the Section II
  characterization analyses.
* :mod:`repro.timeseries` — DTW, correlation, clustering, silhouette,
  regression/VIF/stepwise, metrics — all from scratch on NumPy.
* :mod:`repro.prediction` — temporal models (incl. a NumPy MLP) and the
  spatial signature-set methodology (Section III).
* :mod:`repro.resizing` — the ticket-minimization problem, its MCKP
  transform, greedy/exact solvers and baseline allocators (Section IV).
* :mod:`repro.core` — the ATM fleet pipeline and online controller
  (Section V-A).
* :mod:`repro.testbed` — the simulated MediaWiki cluster (Section V-B).

Quickstart::

    from repro.trace import FleetConfig, generate_fleet
    from repro.core import AtmConfig, run_fleet_atm

    fleet = generate_fleet(FleetConfig(n_boxes=10, days=6, seed=7))
    result = run_fleet_atm(fleet, AtmConfig())
    print(result.mean_ape(), result.mean_signature_ratio())
"""

from repro.core import AtmConfig, FleetAtmResult, run_fleet_atm
from repro.tickets import TicketPolicy
from repro.trace import FleetConfig, FleetTrace, Resource, generate_fleet

__version__ = "1.0.0"

__all__ = [
    "AtmConfig",
    "FleetAtmResult",
    "FleetConfig",
    "FleetTrace",
    "Resource",
    "TicketPolicy",
    "__version__",
    "generate_fleet",
    "run_fleet_atm",
]
