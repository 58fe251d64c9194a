"""Tests of one box's offline ATM run through the chunk orchestrator.

:func:`repro.core.pipeline._run_box_atm_chunk` runs a chunk of boxes down
the degradation ladder; a one-box chunk is one box's train → predict →
resize → evaluate run.  The per-box reference controller lives in
``tests/core/atm_oracle.py``.
"""

import sys

import numpy as np
import pytest

from repro.core.config import AtmConfig
from repro.core.pipeline import _run_box_atm_chunk, run_fleet_atm
from repro.core.stages import _BoxRun
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing import evaluate
from repro.resizing.evaluate import ResizingAlgorithm
from repro.trace.generator import FleetConfig, generate_box
from repro.trace.model import FleetTrace, Resource
from tests.core.atm_oracle import AtmController


@pytest.fixture(scope="module")
def fast_config():
    """Cheap temporal model so the runs stay quick."""
    return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="seasonal_mean")


@pytest.fixture(scope="module")
def box():
    return generate_box(1, FleetConfig(days=6, seed=21))


def run_box(box, config):
    """One box's ATM result; the run must not degrade."""
    [(result, events)] = _run_box_atm_chunk([box], config)
    assert events == []
    return result


class TestLifecycle:
    def test_fit_then_predict(self, box, fast_config):
        result = run_box(box, fast_config)
        for resource in (Resource.CPU, Resource.RAM):
            assert result.predicted[resource].shape == (box.n_vms, 96)

    def test_split_prediction(self, box, fast_config):
        run = _BoxRun(box, fast_config, fast_config.training_windows)
        stacked = np.arange(2 * box.n_vms * 3, dtype=float).reshape(2 * box.n_vms, 3)
        split = run.split(stacked)
        assert split[Resource.CPU].tobytes() == stacked[: box.n_vms].tobytes()
        assert split[Resource.RAM].tobytes() == stacked[box.n_vms :].tobytes()

    def test_resize_respects_budget(self, box, fast_config):
        allocations = run_box(box, fast_config).allocations
        for resource in (Resource.CPU, Resource.RAM):
            alloc = allocations[resource]
            assert alloc.shape == (box.n_vms,)
            assert alloc.sum() <= box.capacity(resource) + 1e-6
            assert np.all(alloc > 0)


class TestRun:
    def test_run_produces_complete_result(self, box, fast_config):
        result = run_box(box, fast_config)
        assert result.box_id == box.box_id
        assert np.isfinite(result.accuracy.ape)
        assert 0.0 < result.accuracy.signature_ratio <= 1.0
        for resource in (Resource.CPU, Resource.RAM):
            for algorithm in fast_config.algorithms:
                assert (resource, algorithm) in result.reductions

    def test_atm_not_worse_than_status_quo_often(self, fast_config):
        """Across several boxes, ATM's median per-box reduction is positive."""
        boxes = [generate_box(b, FleetConfig(days=6, seed=31)) for b in range(6)]
        reductions = []
        for result, _ in _run_box_atm_chunk(boxes, fast_config):
            red = result.reductions[(Resource.CPU, ResizingAlgorithm.ATM)]
            if red.tickets_before > 0:
                reductions.append(red.reduction)
        assert reductions, "expected at least one ticketed box"
        assert np.median(reductions) > 0.0

    def test_too_short_box_rejected(self, fast_config):
        short = generate_box(0, FleetConfig(days=1, seed=4))
        result = run_fleet_atm(FleetTrace(boxes=[short], name="short"), fast_config)
        assert result.accuracies == []
        [event] = result.report.events
        assert event.rung == "failed" and "windows" in event.reason

    def test_default_lower_bounds_from_last_training_day(self, box, fast_config):
        run = _BoxRun(box, fast_config, fast_config.training_windows)
        lb = run.split(run.floors)[Resource.CPU]
        demands = box.demand_matrix(Resource.CPU)
        expected = demands[:, 480 - 96 : 480].max(axis=1)
        assert lb == pytest.approx(expected)


@pytest.fixture()
def sizing_calls(monkeypatch):
    """Count MCKP sizing solves: wrap every ``repro`` binding of
    :func:`~repro.resizing.evaluate.resize_allocation`, wherever imported."""
    calls = []
    real = evaluate.resize_allocation

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "resize_allocation", None) is real:
            monkeypatch.setattr(module, "resize_allocation", counted)
    return calls


class TestSizingOnce:
    """Each box and resource is sized once per algorithm, ATM included."""

    def test_run_solves_each_algorithm_once(self, box, fast_config, sizing_calls):
        run_box(box, fast_config)
        assert len(sizing_calls) == 2 * len(fast_config.algorithms)
        assert sizing_calls.count(ResizingAlgorithm.ATM) == 2

    def test_fused_chunk_solves_each_algorithm_once_per_box(self, sizing_calls):
        config = AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="neural")
        boxes = [generate_box(b, FleetConfig(days=6, seed=21)) for b in range(2)]
        pairs = list(_run_box_atm_chunk(boxes, config))
        assert all(result is not None and not events for result, events in pairs)
        assert len(sizing_calls) == len(boxes) * 2 * len(config.algorithms)

    def test_resize_matches_run_allocations(self, box, fast_config):
        """The oracle controller's standalone resize sizes as the run does."""
        controller = AtmController(box, fast_config).fit()
        allocations = controller.resize(controller.split_prediction(controller.predict()))
        result = run_box(box, fast_config)
        assert list(allocations) == list(result.allocations)
        for resource, allocation in allocations.items():
            assert allocation.tobytes() == result.allocations[resource].tobytes()

    def test_config_without_atm_still_sizes_atm(self, box, fast_config, sizing_calls):
        config = AtmConfig.with_clustering(
            ClusteringMethod.CBC,
            temporal_model="seasonal_mean",
            algorithms=(ResizingAlgorithm.STINGY,),
        )
        result = run_box(box, config)
        assert set(result.reductions) == {
            (Resource.CPU, ResizingAlgorithm.STINGY),
            (Resource.RAM, ResizingAlgorithm.STINGY),
        }
        assert sizing_calls.count(ResizingAlgorithm.ATM) == 2
        reference = run_box(box, fast_config)
        for resource, allocation in reference.allocations.items():
            assert allocation.tobytes() == result.allocations[resource].tobytes()
