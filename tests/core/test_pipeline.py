"""Tests for the fleet pipeline (repro.core.pipeline) and results."""

import numpy as np
import pytest

from repro.core.config import AtmConfig
from repro.core.pipeline import run_fleet_atm
from repro.core.results import PredictionAccuracy, accuracy_for_box, ape_cdf
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import ResizingAlgorithm
from repro.trace.generator import FleetConfig, generate_fleet
from repro.trace.model import Resource


@pytest.fixture(scope="module")
def result(pipeline_fleet_6d_module):
    config = AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="seasonal_mean"
    )
    return run_fleet_atm(pipeline_fleet_6d_module, config, keep_box_results=True)


@pytest.fixture(scope="module")
def pipeline_fleet_6d_module():
    return generate_fleet(FleetConfig(n_boxes=5, days=6, seed=13))


class TestRunFleet:
    def test_every_box_evaluated(self, result, pipeline_fleet_6d_module):
        assert len(result.accuracies) == pipeline_fleet_6d_module.n_boxes
        assert len(result.box_results) == pipeline_fleet_6d_module.n_boxes

    def test_accuracy_aggregates(self, result):
        assert np.isfinite(result.mean_ape())
        assert result.mean_ape() > 0.0
        assert 0.0 < result.mean_signature_ratio() <= 1.0

    def test_cdf_accessors(self, result):
        cdf = result.ape_cdf()
        assert cdf is not None
        assert cdf(0.0) <= cdf(100.0)

    def test_reductions_present(self, result):
        for resource in (Resource.CPU, Resource.RAM):
            value = result.mean_reduction(resource, ResizingAlgorithm.ATM)
            assert np.isfinite(value)

    def test_short_boxes_skipped(self):
        fleet = generate_fleet(FleetConfig(n_boxes=2, days=1, seed=3))
        # No box is long enough: an empty result plus one fleet event.
        result = run_fleet_atm(fleet, AtmConfig())
        assert result.accuracies == []
        (event,) = result.report.events
        assert (event.box_id, event.stage, event.rung) == (
            f"fleet:{fleet.name}",
            "fleet",
            "failed",
        )
        assert "windows" in event.reason


class TestAccuracyForBox:
    def test_basic(self):
        actual = np.array([[10.0, 20.0], [5.0, 5.0]])
        predicted = np.array([[11.0, 18.0], [5.0, 5.0]])
        accuracy = accuracy_for_box(
            "b", actual, predicted, peak_thresholds=np.array([15.0, 100.0]),
            signature_ratio=0.5,
        )
        assert accuracy.box_id == "b"
        # Series 1: APEs 10% and 10% -> 10; series 2: 0 -> mean 5.
        assert accuracy.ape == pytest.approx(5.0)
        # Only window (0,1) is a peak: APE 10%.
        assert accuracy.peak_ape == pytest.approx(10.0)

    def test_no_peaks_nan(self):
        actual = np.ones((1, 3))
        accuracy = accuracy_for_box(
            "b", actual, actual, peak_thresholds=np.array([10.0]), signature_ratio=1.0
        )
        assert np.isnan(accuracy.peak_ape)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_for_box("b", np.ones((2, 2)), np.ones((2, 3)), np.ones(2), 1.0)

    def test_ape_cdf_filters_nan(self):
        accs = [
            PredictionAccuracy("a", 10.0, float("nan"), 0.5),
            PredictionAccuracy("b", 20.0, 5.0, 0.5),
        ]
        assert ape_cdf(accs).values.tolist() == [10.0, 20.0]
        assert ape_cdf(accs, peak=True).values.tolist() == [5.0]
        assert ape_cdf([PredictionAccuracy("c", float("nan"), float("nan"), 1.0)]) is None


class TestNanNormalization:
    """Fleet aggregates drop non-finite per-box metrics uniformly."""

    @staticmethod
    def _result_with(accuracies):
        from repro.core.pipeline import FleetAtmResult

        result = FleetAtmResult(config=AtmConfig())
        result.accuracies.extend(accuracies)
        return result

    def test_all_nan_box_ignored_everywhere(self):
        nan = float("nan")
        healthy = PredictionAccuracy("a", 10.0, 20.0, 0.5)
        degenerate = PredictionAccuracy("b", nan, nan, nan)
        result = self._result_with([healthy, degenerate])
        assert result.mean_ape() == pytest.approx(10.0)
        assert result.mean_ape(peak=True) == pytest.approx(20.0)
        assert result.mean_signature_ratio() == pytest.approx(0.5)
        assert result.ape_cdf().values.tolist() == [10.0]

    def test_fleet_of_only_nan_boxes(self):
        nan = float("nan")
        result = self._result_with([PredictionAccuracy("a", nan, nan, nan)])
        assert np.isnan(result.mean_ape())
        assert np.isnan(result.mean_ape(peak=True))
        assert np.isnan(result.mean_signature_ratio())
        assert result.ape_cdf() is None

    def test_signature_ratio_matches_ape_filtering(self):
        # The historical bug: mean_ape filtered non-finite values but
        # mean_signature_ratio averaged nan straight in, poisoning the mean.
        nan = float("nan")
        result = self._result_with(
            [
                PredictionAccuracy("a", 10.0, 10.0, 0.4),
                PredictionAccuracy("b", nan, nan, nan),
                PredictionAccuracy("c", 30.0, 30.0, 0.8),
            ]
        )
        assert np.isfinite(result.mean_signature_ratio())
        assert result.mean_signature_ratio() == pytest.approx(0.6)
