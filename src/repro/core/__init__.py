"""The ATM (Active Ticket Managing) system — the paper's core contribution.

Ties the substrates together: per box, ATM trains the spatial-temporal
predictor on a training window (5 days in the paper), forecasts all demand
series one resizing window ahead (1 day = 96 ticketing windows), and sizes
the co-located VMs with the greedy MCKP algorithm.

* :mod:`repro.core.config` — configuration of the full system.
* :mod:`repro.core.runtime` — consolidated environment-variable gates.
* :mod:`repro.core.stages` — per-box stage artifact keys, codecs and the
  evaluate stage.
* :mod:`repro.core.executor` — parallel fleet execution engine.
* :mod:`repro.core.pipeline` — fleet-scale evaluation runs (Figs. 9, 10)
  and the chunk orchestrator that runs each box.
* :mod:`repro.core.results` — result containers and aggregation.
* :mod:`repro.core.degrade` — graceful-degradation ladder reporting.
* :mod:`repro.core.faults` — seeded fault injection for the pipeline.
"""

from repro.core.config import AtmConfig
from repro.core.degrade import DegradationEvent, ErrorReport
from repro.core.executor import FleetExecutor, resolve_jobs
from repro.core.online import (
    OnlineAtmController,
    OnlineFleetResult,
    OnlineRunResult,
    run_online_fleet,
)
from repro.core.pipeline import FleetAtmResult, run_fleet_atm
from repro.core.results import BoxAtmResult, PredictionAccuracy

# Imported for its side effect as well: registers the forecast/box-result/
# resize-eval artifact codecs with repro.store.
from repro.core import stages as stages  # noqa: F401  (re-exported module)

__all__ = [
    "AtmConfig",
    "BoxAtmResult",
    "DegradationEvent",
    "ErrorReport",
    "FleetAtmResult",
    "FleetExecutor",
    "OnlineAtmController",
    "OnlineFleetResult",
    "OnlineRunResult",
    "PredictionAccuracy",
    "resolve_jobs",
    "run_fleet_atm",
    "run_online_fleet",
]
