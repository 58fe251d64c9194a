"""Drift gate under regime-shift scenarios.

The online controller's drift gate exists precisely for traces whose
statistics change mid-stream. A scenario that switches a box from
web-diurnal to spiky mid-trace must trip the reconstruction-error gate
and force a full re-search within a bounded number of steps; the
stationary paper-fig2 trace must not.
"""

import pytest

from repro import obs
from repro.core.config import AtmConfig
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.core.online import OnlineAtmController
from repro.trace import (
    CohortSpec,
    FleetConfig,
    RegimeShift,
    ScenarioSpec,
    generate_box,
    render_box,
)

CFG = FleetConfig(days=10, seed=41)
BOX_INDEX = 2
REFIT_EVERY = 100

SHIFT_SPEC = ScenarioSpec(
    "drift-stress",
    cohorts=(
        CohortSpec("web-diurnal", shift=RegimeShift("spiky", at_fraction=0.55)),
    ),
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    obs.reset_metrics()
    yield
    obs.reset_metrics()


def _neural_config():
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="neural"
    )


def _counters():
    return obs.metrics_snapshot()["counters"]


def _run(box):
    controller = OnlineAtmController(
        box, _neural_config(), refit_every_steps=REFIT_EVERY
    )
    result = controller.run()
    return result.steps, _counters()


class TestRegimeShiftDrift:
    def test_mid_trace_archetype_switch_trips_drift_gate(self):
        box = render_box(BOX_INDEX, SHIFT_SPEC, CFG)
        steps, counters = _run(box)
        # The gate must fire at least once, within the bounded run —
        # i.e. strictly before the temporal-cadence refits alone would
        # account for every refit.
        assert counters.get("online.refit.drift", 0) >= 1
        assert counters["online.refit"] == 1 + counters["online.refit.drift"]
        assert counters.get("online.degradations", 0) == 0
        assert len(steps) > 0

    def test_stationary_paper_trace_does_not_trip_gate(self):
        box = generate_box(BOX_INDEX, CFG)
        steps, counters = _run(box)
        assert counters.get("online.refit.drift", 0) == 0
        assert counters["online.refit"] == 1
        # One OnlineStep per (control step, resource); the gate is
        # evaluated once per control step after the initial fit.
        assert counters["online.drift_skips"] == len(steps) // 2 - 1
