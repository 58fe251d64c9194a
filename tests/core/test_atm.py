"""Tests for the per-box ATM controller (repro.core.atm)."""

import sys

import numpy as np
import pytest

from repro.core.atm import AtmController
from repro.core.config import AtmConfig
from repro.core.pipeline import _run_box_atm_fused_chunk
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing import evaluate
from repro.resizing.evaluate import ResizingAlgorithm
from repro.trace.generator import FleetConfig, generate_box
from repro.trace.model import Resource


@pytest.fixture(scope="module")
def fast_config():
    """Cheap temporal model so controller tests stay quick."""
    return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="seasonal_mean")


@pytest.fixture(scope="module")
def box():
    return generate_box(1, FleetConfig(days=6, seed=21))


class TestLifecycle:
    def test_fit_then_predict(self, box, fast_config):
        controller = AtmController(box, fast_config).fit()
        assert controller.is_fitted
        prediction = controller.predict()
        assert prediction.predictions.shape == (2 * box.n_vms, 96)

    def test_predict_before_fit_raises(self, box, fast_config):
        with pytest.raises(RuntimeError):
            AtmController(box, fast_config).predict()

    def test_signature_ratio_before_fit_raises(self, box, fast_config):
        with pytest.raises(RuntimeError):
            _ = AtmController(box, fast_config).signature_ratio

    def test_split_prediction(self, box, fast_config):
        controller = AtmController(box, fast_config).fit()
        split = controller.split_prediction(controller.predict())
        assert split[Resource.CPU].shape == (box.n_vms, 96)
        assert split[Resource.RAM].shape == (box.n_vms, 96)

    def test_resize_respects_budget(self, box, fast_config):
        controller = AtmController(box, fast_config).fit()
        allocations = controller.resize(controller.split_prediction(controller.predict()))
        for resource in (Resource.CPU, Resource.RAM):
            alloc = allocations[resource]
            assert alloc.shape == (box.n_vms,)
            assert alloc.sum() <= box.capacity(resource) + 1e-6
            assert np.all(alloc > 0)


class TestRun:
    def test_run_produces_complete_result(self, box, fast_config):
        result = AtmController(box, fast_config).run()
        assert result.box_id == box.box_id
        assert np.isfinite(result.accuracy.ape)
        assert 0.0 < result.accuracy.signature_ratio <= 1.0
        for resource in (Resource.CPU, Resource.RAM):
            for algorithm in fast_config.algorithms:
                assert (resource, algorithm) in result.reductions

    def test_atm_not_worse_than_status_quo_often(self, fast_config):
        """Across several boxes, ATM's median per-box reduction is positive."""
        reductions = []
        for b in range(6):
            box = generate_box(b, FleetConfig(days=6, seed=31))
            result = AtmController(box, fast_config).run()
            red = result.reductions[(Resource.CPU, ResizingAlgorithm.ATM)]
            if red.tickets_before > 0:
                reductions.append(red.reduction)
        assert reductions, "expected at least one ticketed box"
        assert np.median(reductions) > 0.0

    def test_too_short_box_rejected(self, fast_config):
        box = generate_box(0, FleetConfig(days=1, seed=4))
        with pytest.raises(ValueError, match="windows"):
            AtmController(box, fast_config).run()

    def test_default_lower_bounds_from_last_training_day(self, box, fast_config):
        controller = AtmController(box, fast_config).fit()
        lb = controller._default_lower_bounds(Resource.CPU)
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
        AtmController(box, fast_config).run()
        assert len(sizing_calls) == 2 * len(fast_config.algorithms)
        assert sizing_calls.count(ResizingAlgorithm.ATM) == 2

    def test_fused_chunk_solves_each_algorithm_once_per_box(self, sizing_calls):
        config = AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="neural")
        boxes = [generate_box(b, FleetConfig(days=6, seed=21)) for b in range(2)]
        pairs = _run_box_atm_fused_chunk(boxes, config, True)
        assert all(result is not None and not events for result, events in pairs)
        assert len(sizing_calls) == len(boxes) * 2 * len(config.algorithms)

    def test_resize_matches_run_allocations(self, box, fast_config):
        controller = AtmController(box, fast_config).fit()
        allocations = controller.resize(controller.split_prediction(controller.predict()))
        result = AtmController(box, fast_config).run()
        assert list(allocations) == list(result.allocations)
        for resource, allocation in allocations.items():
            assert allocation.tobytes() == result.allocations[resource].tobytes()

    def test_config_without_atm_still_sizes_atm(self, box, fast_config, sizing_calls):
        config = AtmConfig.with_clustering(
            ClusteringMethod.CBC,
            temporal_model="seasonal_mean",
            algorithms=(ResizingAlgorithm.STINGY,),
        )
        result = AtmController(box, config).run()
        assert set(result.reductions) == {
            (Resource.CPU, ResizingAlgorithm.STINGY),
            (Resource.RAM, ResizingAlgorithm.STINGY),
        }
        assert sizing_calls.count(ResizingAlgorithm.ATM) == 2
        reference = AtmController(box, fast_config).run()
        for resource, allocation in reference.allocations.items():
            assert allocation.tobytes() == result.allocations[resource].tobytes()
