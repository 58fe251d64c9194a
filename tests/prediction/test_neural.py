"""Tests for the NumPy MLP predictor (repro.prediction.temporal.neural)."""

import numpy as np
import pytest

from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor, _Mlp
from tests.prediction.mlp_oracle import SerialMlp, SerialNeuralNetPredictor


class TestMlpCore:
    def test_forward_shapes(self, rng):
        net = _Mlp(
            [rng.normal(size=(3, 8)), rng.normal(size=(8, 1))], [np.zeros(8), np.zeros(1)]
        )
        out = net.predict(rng.normal(size=(5, 3)))
        assert out.shape == (5, 1)

    def test_training_reduces_loss(self, rng):
        net = SerialMlp([2, 16, 1], rng)
        x = rng.normal(size=(256, 2))
        y = (x[:, :1] * 2.0 - x[:, 1:] * 0.5)
        first = net.train_batch(x, y, lr=1e-2, l2=0.0)
        for _ in range(300):
            last = net.train_batch(x, y, lr=1e-2, l2=0.0)
        assert last < 0.1 * first

    def test_snapshot_restore(self, rng):
        net = SerialMlp([2, 4, 1], rng)
        state = net.snapshot()
        x = rng.normal(size=(32, 2))
        before = net.predict(x)
        net.train_batch(x, np.ones((32, 1)), lr=0.1, l2=0.0)
        assert not np.allclose(net.predict(x), before)
        net.restore(state)
        assert np.allclose(net.predict(x), before)


class TestConfig:
    def test_defaults_valid(self):
        MlpConfig()

    def test_invalid_hidden(self):
        with pytest.raises(ValueError):
            MlpConfig(hidden_layers=(0,))

    def test_invalid_validation_fraction(self):
        with pytest.raises(ValueError):
            MlpConfig(validation_fraction=0.9)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", 0),
            ("max_epochs", 0),
            ("patience", 0),
            ("learning_rate", 0.0),
            ("learning_rate", -1e-2),
            ("learning_rate", float("nan")),
            ("l2", -1e-4),
            ("l2", float("nan")),
        ],
    )
    def test_invalid_training_hyperparameters(self, field, value):
        with pytest.raises(ValueError, match=field):
            MlpConfig(**{field: value})


def diurnal(size, seed, period):
    rng = np.random.default_rng(seed)
    t = np.arange(size)
    return 40 + 25 * np.sin(2 * np.pi * t / period) + rng.normal(0, 2.0, size)


class TestFitMatchesOracle:
    """``fit`` is a width-1 kernel call, bit-identical to the reference loop."""

    @pytest.mark.parametrize(
        "cfg,size",
        [
            (MlpConfig(max_epochs=15), 96 * 5),  # production topology, period 96
            (MlpConfig(period=24, hidden_layers=(8, 4), max_epochs=40), 24 * 5 + 11),
        ],
    )
    def test_fit_matches_oracle(self, cfg, size):
        history = diurnal(size, seed=size, period=cfg.period)
        model = NeuralNetPredictor(cfg)
        assert model.fit(history) is model
        oracle = SerialNeuralNetPredictor(cfg).fit(history)
        assert model._fit_epochs == oracle._fit_epochs
        np.testing.assert_array_equal(model.predict(cfg.period), oracle.predict(cfg.period))


class TestNeuralNetPredictor:
    def test_learns_seasonal_pattern(self):
        period = 8
        pattern = np.array([5.0, 8.0, 20.0, 45.0, 60.0, 40.0, 15.0, 6.0])
        history = np.tile(pattern, 10)
        config = MlpConfig(period=period, max_epochs=120, seed=0)
        forecast = NeuralNetPredictor(config).fit(history).predict(period)
        # Within ~20% of the clean pattern.
        assert np.abs(forecast - pattern).mean() < 0.25 * pattern.mean()

    def test_deterministic_given_seed(self):
        history = np.tile([1.0, 5.0, 9.0, 4.0], 12)
        config = MlpConfig(period=4, seed=3, max_epochs=30)
        a = NeuralNetPredictor(config).fit(history).predict(4)
        b = NeuralNetPredictor(config).fit(history).predict(4)
        assert a == pytest.approx(b)

    def test_horizon_beyond_period(self):
        history = np.tile([1.0, 2.0], 30)
        config = MlpConfig(period=2, max_epochs=20)
        forecast = NeuralNetPredictor(config).fit(history).predict(7)
        assert forecast.shape == (7,)
        assert np.isfinite(forecast).all()

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            NeuralNetPredictor(MlpConfig(period=96)).fit(np.ones(10))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            NeuralNetPredictor().predict(1)

    def test_beats_last_value_on_diurnal(self, sample_box):
        """On a realistic diurnal series, the MLP must beat the naive floor."""
        series = sample_box.usage[0]  # VM 0's CPU row
        train, actual = series[:480], series[480:576]
        config = MlpConfig(period=96, seed=1)
        mlp = NeuralNetPredictor(config).fit(train).predict(96)
        naive = np.full(96, train[-1])
        mlp_err = np.abs(mlp - actual).mean()
        naive_err = np.abs(naive - actual).mean()
        assert mlp_err < naive_err * 1.2  # at worst marginally behind, usually ahead
