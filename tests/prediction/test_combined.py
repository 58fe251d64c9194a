"""Tests for the combined predictor (repro.prediction.combined)."""

import numpy as np
import pytest

from repro.prediction.combined import (
    BoxPrediction,
    SpatialTemporalConfig,
    SpatialTemporalPredictor,
)
from repro.prediction.spatial.signatures import ClusteringMethod, SignatureSearchConfig
from repro.timeseries.metrics import mean_absolute_percentage_error


def periodic_matrix(rng, n_series=6, days=5, period=24):
    t = np.arange(days * period)
    base = 30 + 20 * np.sin(2 * np.pi * t / period)
    rows = []
    for k in range(n_series):
        scale = rng.uniform(0.5, 2.0)
        rows.append(scale * base + rng.normal(0, 1.0, size=t.size))
    return np.vstack(rows)


@pytest.fixture()
def config():
    return SpatialTemporalConfig(
        search=SignatureSearchConfig(method=ClusteringMethod.CBC),
        temporal_model="seasonal_mean",
        period=24,
    )


class TestFitPredict:
    def test_prediction_shape(self, rng, config):
        data = periodic_matrix(rng)
        prediction = SpatialTemporalPredictor(config).fit_predict(data, 24)
        assert prediction.predictions.shape == (6, 24)
        assert prediction.n_series == 6

    def test_accurate_on_periodic_data(self, rng, config):
        data = periodic_matrix(rng, days=6)
        train, actual = data[:, :120], data[:, 120:144]
        prediction = SpatialTemporalPredictor(config).fit_predict(train, 24)
        for i in range(6):
            ape = mean_absolute_percentage_error(actual[i], prediction.predictions[i])
            assert ape < 25.0

    def test_signature_reduction_happens(self, rng, config):
        data = periodic_matrix(rng)
        prediction = SpatialTemporalPredictor(config).fit_predict(data, 24)
        assert prediction.signature_ratio < 1.0

    def test_clipping_at_zero(self, config, rng):
        data = np.abs(periodic_matrix(rng)) * 0.01  # tiny demands
        prediction = SpatialTemporalPredictor(config).fit_predict(data, 24)
        assert prediction.predictions.min() >= 0.0

    def test_clip_max(self, rng):
        config = SpatialTemporalConfig(temporal_model="seasonal_mean", period=24, clip_max=10.0)
        data = periodic_matrix(rng)
        prediction = SpatialTemporalPredictor(config).fit_predict(data, 24)
        assert prediction.predictions.max() <= 10.0

    def test_unfitted_predict_raises(self, config):
        with pytest.raises(RuntimeError):
            SpatialTemporalPredictor(config).predict(5)

    def test_bad_horizon(self, rng, config):
        predictor = SpatialTemporalPredictor(config).fit(periodic_matrix(rng))
        with pytest.raises(ValueError):
            predictor.predict(0)

    def test_bad_input_shape(self, config):
        with pytest.raises(ValueError):
            SpatialTemporalPredictor(config).fit(np.ones(10))

    def test_spatial_model_accessor(self, rng, config):
        predictor = SpatialTemporalPredictor(config)
        with pytest.raises(RuntimeError):
            _ = predictor.spatial_model
        predictor.fit(periodic_matrix(rng))
        assert predictor.spatial_model.n_series == 6

    def test_neural_default_model(self, rng):
        config = SpatialTemporalConfig(period=24)
        data = periodic_matrix(rng)
        prediction = SpatialTemporalPredictor(config).fit_predict(data, 24)
        assert prediction.temporal_model == "neural"
        assert np.isfinite(prediction.predictions).all()


class TestSplitFit:
    """``begin_fit``/``finish_fit`` — the fused plane's two-phase fit."""

    @staticmethod
    def _external_fits(config, histories):
        from repro.prediction.registry import make_temporal_model

        return [
            make_temporal_model(config.temporal_model, period=config.period).fit(h)
            for h in histories
        ]

    def test_split_fit_equals_inline_fit(self, rng, config):
        data = periodic_matrix(rng)
        inline = SpatialTemporalPredictor(config).fit(data)
        split = SpatialTemporalPredictor(config)
        histories = split.begin_fit(data)
        split.finish_fit(self._external_fits(config, histories))
        np.testing.assert_array_equal(
            split.predict(24).predictions, inline.predict(24).predictions
        )
        assert split.spatial_model.signature_ratio == (
            inline.spatial_model.signature_ratio
        )
        assert split.baseline_reconstruction_error == (
            inline.baseline_reconstruction_error
        )

    def test_histories_are_signature_rows(self, rng, config):
        data = periodic_matrix(rng)
        predictor = SpatialTemporalPredictor(config)
        histories = predictor.begin_fit(data)
        indices = predictor.spatial_model.signature_indices
        assert len(histories) == len(indices)
        for idx, history in zip(indices, histories):
            np.testing.assert_array_equal(history, data[idx])

    def test_finish_without_begin_raises(self, config):
        with pytest.raises(RuntimeError, match="begin_fit"):
            SpatialTemporalPredictor(config).finish_fit([])

    def test_wrong_model_count_raises(self, rng, config):
        predictor = SpatialTemporalPredictor(config)
        predictor.begin_fit(periodic_matrix(rng))
        with pytest.raises(ValueError, match="fitted temporal models"):
            predictor.finish_fit([])

    def test_predict_before_finish_raises(self, rng, config):
        predictor = SpatialTemporalPredictor(config)
        predictor.begin_fit(periodic_matrix(rng))
        with pytest.raises(Exception):
            predictor.predict(24)

    def test_refit_temporal_after_split_fit(self, rng, config):
        data = periodic_matrix(rng, days=6)
        predictor = SpatialTemporalPredictor(config)
        histories = predictor.begin_fit(data[:, :96])
        predictor.finish_fit(self._external_fits(config, histories))
        histories = predictor.begin_refit_temporal(data[:, :120])
        predictor.finish_refit_temporal(self._external_fits(config, histories))
        assert predictor.predict(24).predictions.shape == (6, 24)

    def test_finish_refit_without_begin_raises(self, rng, config):
        predictor = SpatialTemporalPredictor(config).fit(periodic_matrix(rng))
        with pytest.raises(RuntimeError, match="begin_refit_temporal"):
            predictor.finish_refit_temporal([])

    def test_a_new_search_resets_the_warm_chain(self, rng, config):
        data = periodic_matrix(rng, days=6)
        predictor = SpatialTemporalPredictor(config)
        histories = predictor.begin_fit(data[:, :96])
        predictor.finish_fit(self._external_fits(config, histories), object())
        # A new search's fit is cold.
        predictor.begin_fit(data[:, 24:120])
        assert predictor.warm_state is None
