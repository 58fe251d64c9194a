"""Tests for workload signal primitives (repro.trace.workloads)."""

import numpy as np
import pytest

from repro.trace.workloads import (
    alternating_load,
    ar1_noise,
    bursts,
    daily_spikes,
    diurnal,
)


class TestDiurnal:
    def test_period_and_bounds(self):
        signal = diurnal(192, 96)
        assert signal.shape == (192,)
        assert signal.max() <= 1.0 + 1e-9
        assert signal.min() >= -1.0 - 1e-9
        assert signal[:96] == pytest.approx(signal[96:])

    def test_phase_shift(self):
        a = diurnal(96, 96, phase=0.0)
        b = diurnal(96, 96, phase=0.25)
        assert not np.allclose(a, b)
        # Quarter-day shift: b(t) = a(t - 24).
        assert b[24:] == pytest.approx(a[:-24], abs=1e-9)

    def test_sharpness_squeezes(self):
        soft = diurnal(96, 96, sharpness=1.0)
        sharp = diurnal(96, 96, sharpness=3.0)
        assert np.abs(sharp).mean() < np.abs(soft).mean()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            diurnal(0, 96)


class TestAr1:
    def test_stationary_variance(self, rng):
        phi, sigma = 0.8, 1.0
        x = ar1_noise(rng, 20000, phi=phi, sigma=sigma)
        expected_std = sigma / np.sqrt(1 - phi * phi)
        assert x.std() == pytest.approx(expected_std, rel=0.1)

    def test_autocorrelation_sign(self, rng):
        x = ar1_noise(rng, 5000, phi=0.9)
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert lag1 > 0.8

    def test_phi_bounds(self, rng):
        with pytest.raises(ValueError):
            ar1_noise(rng, 10, phi=1.0)

    @pytest.mark.parametrize("n_windows", [0, -3])
    def test_nonpositive_windows_rejected_before_any_draw(self, n_windows):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="n_windows"):
            ar1_noise(rng, n_windows)
        # The failed call consumed nothing: the stream continues as if it
        # had never been made.
        assert rng.random() == np.random.default_rng(5).random()

    def test_deterministic_given_seed(self):
        a = ar1_noise(np.random.default_rng(5), 50)
        b = ar1_noise(np.random.default_rng(5), 50)
        assert a == pytest.approx(b)


class TestBursts:
    def test_nonnegative(self, rng):
        assert bursts(rng, 1000, rate_per_window=0.05).min() >= 0.0

    def test_zero_rate_no_bursts(self, rng):
        assert bursts(rng, 500, rate_per_window=0.0).max() == 0.0

    def test_rate_scales_occupancy(self, rng):
        low = bursts(rng, 5000, rate_per_window=0.001)
        high = bursts(rng, 5000, rate_per_window=0.1)
        assert (high > 0).mean() > (low > 0).mean()

    def test_negative_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            bursts(rng, 10, rate_per_window=-0.1)


class TestDailySpikes:
    def test_zero_spikes(self, rng):
        assert daily_spikes(rng, 96, 96, spikes_per_day=0).max() == 0.0

    def test_spikes_repeat_daily(self, rng):
        train = daily_spikes(rng, 96 * 5, 96, spikes_per_day=1, height_range=(10, 10))
        days_with_spike = sum(
            train[d * 96 : (d + 1) * 96].max() > 0 for d in range(5)
        )
        assert days_with_spike >= 4  # jitter may push one off the edge

    def test_height_in_range(self, rng):
        train = daily_spikes(rng, 96 * 3, 96, height_range=(5.0, 7.0))
        positive = train[train > 0]
        assert positive.size > 0
        assert positive.min() >= 5.0 - 1e-9
        assert positive.max() <= 7.0 + 1e-9

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            daily_spikes(rng, 96, 96, spikes_per_day=-1)
        with pytest.raises(ValueError):
            daily_spikes(rng, 96, 96, max_duration=0)


class TestAlternatingLoad:
    def test_square_wave(self):
        load = alternating_load(8, 2, low=1.0, high=3.0)
        assert load.tolist() == [1, 1, 3, 3, 1, 1, 3, 3]

    def test_start_high(self):
        load = alternating_load(4, 2, low=1.0, high=3.0, start_low=False)
        assert load.tolist() == [3, 3, 1, 1]

    def test_low_above_high_rejected(self):
        with pytest.raises(ValueError):
            alternating_load(4, 2, low=5.0, high=3.0)


class TestAr1LfilterPath:
    """``ar1_noise`` matches its oracles byte for byte.

    The NumPy reference loop below is the definitional recurrence; scipy's
    ``lfilter`` (the renderer's former fast path, available wherever the
    ``test`` extra is installed) must agree with it too, so the traces
    rendered before and after scipy left the import graph are the same.
    """

    PHIS = [0.8, 0.97, 0.998, -0.5, 0.3]

    @staticmethod
    def _reference(rng, n_windows, phi, sigma=1.0):
        eps = rng.normal(0.0, sigma, size=n_windows)
        x0 = rng.normal(0.0, sigma / np.sqrt(max(1e-12, 1.0 - phi * phi)))
        out = np.empty(n_windows)
        out[0] = x0
        for t in range(1, n_windows):
            out[t] = phi * out[t - 1] + eps[t]
        return out

    @staticmethod
    def _lfilter(rng, n_windows, phi, sigma=1.0):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        eps = rng.normal(0.0, sigma, size=n_windows)
        eps[0] = rng.normal(0.0, sigma / np.sqrt(max(1e-12, 1.0 - phi * phi)))
        return lfilter([1.0], [1.0, -phi], eps)

    @staticmethod
    def _assert_same_bytes(actual, expected):
        assert actual.dtype == expected.dtype == np.float64
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("phi", PHIS)
    def test_bit_identical_to_loop(self, phi):
        fast = ar1_noise(np.random.default_rng(7), 500, phi=phi)
        loop = self._reference(np.random.default_rng(7), 500, phi=phi)
        self._assert_same_bytes(fast, loop)

    @pytest.mark.parametrize("phi", PHIS)
    def test_bit_identical_to_lfilter(self, phi):
        ours = ar1_noise(np.random.default_rng(11), 1500, phi=phi)
        theirs = self._lfilter(np.random.default_rng(11), 1500, phi=phi)
        self._assert_same_bytes(ours, theirs)

    @pytest.mark.parametrize("oracle", ["_reference", "_lfilter"])
    @pytest.mark.parametrize("n_windows,sigma", [(300, 0.0), (1, 1.0), (1, 0.0)])
    def test_edge_cases(self, oracle, n_windows, sigma):
        ours = ar1_noise(np.random.default_rng(3), n_windows, phi=0.9, sigma=sigma)
        theirs = getattr(self, oracle)(
            np.random.default_rng(3), n_windows, phi=0.9, sigma=sigma
        )
        assert ours.shape == (n_windows,)
        self._assert_same_bytes(ours, theirs)
