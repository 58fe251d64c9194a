"""The chunk orchestrator against the per-box oracle: equivalence pins.

``run_fleet_atm`` runs every box through the chunk orchestrator
(:func:`repro.core.pipeline._run_box_atm_chunk`): gather, one fit call
for the primary rung, scatter, evaluate.  It claims to be observable only as
wall-clock: same per-box results, same degradation events, same ladder
counters and the same store artifacts under the same keys as the
strictly per-box path of ``tests/core/atm_oracle.py``.  These tests pin
that for a kernel model (``neural``, fused across boxes) and a
series-by-series model (``seasonal_mean``), under every fault plan in
:data:`PLANS`, at one and two workers, and for resume in both directions.

Each test walks the whole model × plan (× jobs) grid itself and names
the failing cell in its assertion message.
"""

import contextlib
import os
from itertools import product

import pytest

from repro import obs
from repro.benchhelpers.scaling import fingerprint_result
from repro.core.config import AtmConfig
from repro.core.faults import FaultPlan, FaultRule, fault_plan
from repro.core.pipeline import FUSED_CHUNK_BOXES, FleetAtmResult, run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.trace.generator import FleetConfig, generate_fleet
from tests.core.atm_oracle import run_box_atm

MODELS = {
    name: AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model=name)
    for name in ("neural", "seasonal_mean")
}

#: Fault plans of the grid.  On the 4-box fleet: ``poison`` NaN-poisons
#: boxes 1 and 3 (the primary rejects them, the seasonal rung sanitizes);
#: ``fallback_error`` fails every primary and boxes 0 and 2 at the
#: seasonal rung too.
PLANS = {
    "clean": None,
    "fit_error": FaultPlan(rules=(FaultRule("fit_error", 1.0),)),
    "poison": FaultPlan(rules=(FaultRule("nan_train", 0.5, fraction=0.2),), seed=1),
    "fallback_error": FaultPlan(
        rules=(FaultRule("fit_error", 1.0), FaultRule("fallback_error", 0.5)), seed=0
    ),
}

JOBS = (1, 2)

#: Counters the ladder keeps; both paths must agree on them.
LADDER = ("pipeline.fallback.seasonal", "pipeline.boxes_failed")

GRID = list(product(MODELS, PLANS))


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetConfig(n_boxes=4, days=6, seed=7))


def _installed(plan):
    return contextlib.nullcontext() if plan is None else fault_plan(plan)


def _fold(config, pairs):
    """Fold per-box ``(result, events)`` pairs the way ``run_fleet_atm`` does."""
    out = FleetAtmResult(config=config)
    for result, events in pairs:
        out.report.extend(events)
        if result is not None:
            out.accuracies.append(result.accuracy)
            for reduction in result.reductions.values():
                out.reduction.add(reduction)
    return out


def oracle(fleet, model, plan, resume=False):
    """Every box through the per-box oracle, counters isolated."""
    config = MODELS[model]
    obs.reset_metrics()
    with _installed(PLANS[plan]):
        pairs = [run_box_atm(box, config, resume) for box in fleet]
    return _fold(config, pairs), obs.metrics_snapshot()["counters"]


def orchestrated(fleet, model, plan, jobs=1, resume=False):
    """A full ``run_fleet_atm``, counters isolated."""
    obs.reset_metrics()
    with _installed(PLANS[plan]):
        result = run_fleet_atm(fleet, MODELS[model], jobs=jobs, resume=resume)
    return result, obs.metrics_snapshot()["counters"]


@pytest.fixture(scope="module")
def oracle_runs(fleet):
    """The oracle's fold and counters for every grid cell, computed once."""
    return {cell: oracle(fleet, *cell) for cell in GRID}


def _events(result):
    return [event.to_dict() for event in result.report.events]


def _assert_same(got, want, cell):
    (result, counters), (reference, ref_counters) = got, want
    assert fingerprint_result(result) == fingerprint_result(reference), cell
    assert _events(result) == _events(reference), cell
    for name in LADDER:
        assert counters.get(name, 0) == ref_counters.get(name, 0), (cell, name)


class TestEquivalence:
    def test_fused_matches_per_box(self, fleet, oracle_runs):
        """Results, events and ladder counters equal the oracle's, serially."""
        for model, plan in GRID:
            got = orchestrated(fleet, model, plan)
            _assert_same(got, oracle_runs[model, plan], (model, plan))

    def test_parallel_fused_matches_serial(self, fleet, oracle_runs):
        """Worker counts merge the same counters and fold the same results."""
        for model, plan in GRID:
            got = orchestrated(fleet, model, plan, jobs=2)
            _assert_same(got, oracle_runs[model, plan], (model, plan, 2))

    def test_events_empty_on_clean_run(self, fleet):
        for model in MODELS:
            result, _ = orchestrated(fleet, model, "clean")
            assert result.report.events == [], model

    def test_fused_plane_engaged(self, fleet, oracle_runs):
        """Only the kernel model fuses; the oracle never does."""
        for model, plan in GRID:
            _, counters = orchestrated(fleet, model, plan)
            _, ref_counters = oracle_runs[model, plan]
            assert "fused.groups" not in ref_counters, (model, plan)
            fused = model == "neural" and plan in ("clean", "poison")
            assert (counters.get("fused.groups", 0) > 0) == fused, (model, plan)
            # fused.fallback_boxes counts the boxes that left the primary rung.
            assert counters.get("fused.fallback_boxes", 0) == counters.get(
                "pipeline.fallback.seasonal", 0
            ), (model, plan)


class TestChunkPolicy:
    def test_serial_fused_chunksize_takes_full_cap(self, fleet, monkeypatch):
        """jobs=1 runs use the whole chunk cap (fuller mega-batches)."""
        from repro.core import pipeline

        seen = {}
        original = pipeline._run_box_atm_chunk

        def spy(boxes, *common):
            boxes = list(boxes)
            seen["chunk"] = max(seen.get("chunk", 0), len(boxes))
            return original(boxes, *common)

        monkeypatch.setattr(pipeline, "_run_box_atm_chunk", spy)
        for model in MODELS:
            seen.clear()
            run_fleet_atm(fleet, MODELS[model])
            # 4 boxes < the 64-box cap: one chunk holds the whole fleet.
            assert seen["chunk"] == min(fleet.n_boxes, FUSED_CHUNK_BOXES), model


class TestFaultParity:
    def test_degradation_events_match_per_box_path(self, fleet, oracle_runs):
        """Every faulted box degrades exactly as down the oracle's ladder."""
        for model, plan in GRID:
            if plan == "clean":
                continue
            reference, ref_counters = oracle_runs[model, plan]
            assert reference.report.events, (model, plan)  # the plan fires
            result, counters = orchestrated(fleet, model, plan)
            _assert_same((result, counters), (reference, ref_counters), (model, plan))
            assert result.report == reference.report, (model, plan)
            # No box silently lost: each one is a result or a failure.
            n_failed = len(result.report.failed_boxes)
            assert len(result.accuracies) + n_failed == fleet.n_boxes, (model, plan)
        fallback_failed = oracle_runs["seasonal_mean", "fallback_error"][0]
        assert len(fallback_failed.report.failed_boxes) == 2


class TestStoreStability:
    @pytest.fixture()
    def stores(self, tmp_path, monkeypatch):
        """A fresh store directory per call, installed as ``REPRO_STORE``."""
        made = []

        def fresh():
            root = tmp_path / f"store{len(made)}"
            root.mkdir()
            monkeypatch.setenv("REPRO_STORE", str(root))
            made.append(root)
            return root

        yield fresh

    @staticmethod
    def _files(root):
        return {
            os.path.relpath(os.path.join(base, f), root)
            for base, _, names in os.walk(root)
            for f in names
        }

    def test_fused_artifacts_resume_on_per_box_path(self, fleet, stores):
        """Orchestrator writes, the oracle serves every box from the store."""
        for (model, plan), jobs in product(GRID, JOBS):
            cell = (model, plan, jobs)
            stores()
            written, _ = orchestrated(fleet, model, plan, jobs=jobs)
            resumed, counters = oracle(fleet, model, plan, resume=True)
            assert counters["pipeline.resume.hits"] == fleet.n_boxes, cell
            assert fingerprint_result(resumed) == fingerprint_result(written), cell
            assert _events(resumed) == _events(written), cell

    def test_per_box_artifacts_resume_on_fused_path(self, fleet, stores):
        """The oracle writes, the orchestrator serves every box from the store."""
        for (model, plan), jobs in product(GRID, JOBS):
            cell = (model, plan, jobs)
            stores()
            written, _ = oracle(fleet, model, plan)
            resumed, counters = orchestrated(fleet, model, plan, jobs=jobs, resume=True)
            assert counters["pipeline.resume.hits"] == fleet.n_boxes, cell
            # Everything served from the store: nothing was fitted.
            assert "fused.groups" not in counters, cell
            assert "predict.fits" not in counters, cell
            assert fingerprint_result(resumed) == fingerprint_result(written), cell
            assert _events(resumed) == _events(written), cell

    def test_store_keys_identical_across_paths(self, fleet, stores):
        """Both paths, each into a fresh store, write the same file set."""
        for model, plan in GRID:
            written = stores()
            oracle(fleet, model, plan)
            reference = self._files(written)
            assert reference, (model, plan)  # the run did materialize artifacts
            for jobs in JOBS:
                written = stores()
                orchestrated(fleet, model, plan, jobs=jobs)
                assert self._files(written) == reference, (model, plan, jobs)
