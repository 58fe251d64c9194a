"""Data-center trace substrate.

The paper's evaluation runs on a proprietary IBM trace (6K physical boxes,
80K+ VMs, CPU/RAM capacity and utilization sampled every 15 minutes for 7
days).  This subpackage provides the stand-in: a trace *data model*
(:mod:`repro.trace.model`), a calibrated synthetic *generator*
(:mod:`repro.trace.generator`) whose targets are the paper's published
aggregate statistics, reusable workload *signal primitives*
(:mod:`repro.trace.workloads`), and the long fleet CSV
(:mod:`repro.trace.loader`) so externally collected traces in that shape
can be analyzed with the identical pipeline.
"""

from repro.trace.generator import FleetConfig, generate_box, generate_fleet
from repro.trace.loader import load_fleet_csv, save_fleet_csv, shard_fleet_csv
from repro.trace.model import (
    BoxTrace,
    FleetTrace,
    Resource,
)
from repro.trace.scenario import (
    ARCHETYPES,
    NAMED_SCENARIOS,
    CohortSpec,
    RegimeShift,
    RenderSpec,
    ScenarioSpec,
    render_box,
    render_fleet,
    resolve_scenario,
)

__all__ = [
    "ARCHETYPES",
    "BoxTrace",
    "CohortSpec",
    "FleetConfig",
    "FleetTrace",
    "NAMED_SCENARIOS",
    "RegimeShift",
    "RenderSpec",
    "Resource",
    "ScenarioSpec",
    "generate_box",
    "generate_fleet",
    "load_fleet_csv",
    "render_box",
    "render_fleet",
    "resolve_scenario",
    "save_fleet_csv",
    "shard_fleet_csv",
]
