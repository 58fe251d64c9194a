"""Fleet-fused cross-box training: bit-identity, slabs, failure isolation.

The offline fleet fit is the all-cold case of the fleet trainer
(:func:`repro.prediction.temporal.warm.fit_neural_fleet`): every group a
``(histories, None)`` request.  It claims each group's models are
*bit-identical* to fitting that group on its own (a one-request call) —
regardless of which other boxes ride in the same mega-batch, how ragged
the group sizes are, or where the slab boundaries fall.  These tests pin
that claim, the kernel's slab splitting (at ``FUSED_SLAB_MODELS``,
monkeypatched here), per-group failure isolation, and the fused
observability counters of the registry's fleet fit.
"""

import numpy as np
import pytest

from repro import obs
from repro.prediction.registry import (
    fit_temporal_batch,
    fit_temporal_fleet_batch,
)
from repro.prediction.temporal import batched
from repro.prediction.temporal.batched import (
    FUSED_SLAB_MODELS,
    fit_equal_length_state,
)
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor
from repro.prediction.temporal.warm import fit_neural_fleet
from tests.prediction.mlp_oracle import SerialNeuralNetPredictor

# Small config keeps every fit fast; bit-equivalence is config-agnostic.
FAST = MlpConfig(hidden_layers=(8, 4), period=24, max_epochs=40, patience=5)


def make_histories(k, size, seed, period=24):
    """K diurnal series with heterogeneous noise (so convergence differs)."""
    rng = np.random.default_rng(seed)
    t = np.arange(size)
    out = []
    for _ in range(k):
        base = 40 + 25 * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
        trend = rng.uniform(-0.02, 0.02) * t
        noise = rng.normal(0, rng.uniform(0.5, 4.0), size)
        out.append(np.maximum(base + trend + noise, 0.0))
    return out


def fit_fleet(groups, cfg=FAST):
    """The offline fleet fit: every group a cold request, states dropped."""
    outcomes = fit_neural_fleet([(group, None) for group in groups], cfg)
    return [o if isinstance(o, Exception) else o[0] for o in outcomes]


def fit_one_box(histories, cfg=FAST):
    """One box's fit: a one-request trainer call whose exception raises."""
    (models,) = fit_fleet([histories], cfg)
    if isinstance(models, Exception):
        raise models
    return models


def assert_group_equivalent(per_box, fused, horizon=24):
    assert len(per_box) == len(fused)
    for s, f in zip(per_box, fused):
        assert s._fit_epochs == f._fit_epochs
        np.testing.assert_array_equal(s.predict(horizon), f.predict(horizon))


class TestFusedEquivalence:
    def test_ragged_groups_bit_identical(self):
        """Groups of different widths and lengths: fused == per-box batch."""
        groups = [
            make_histories(3, 24 * 4, seed=0),
            make_histories(1, 24 * 4, seed=1),  # K=1 group joins the batch
            make_histories(4, 24 * 5, seed=2),  # different length bucket
            make_histories(2, 24 * 4, seed=3),
        ]
        fused = fit_fleet(groups)
        for group, fused_models in zip(groups, fused):
            assert fused_models is not None
            per_box = fit_one_box(group)
            assert_group_equivalent(per_box, fused_models)

    def test_slab_boundary_straddle(self, monkeypatch):
        """A mega-batch split into tiny slabs equals the unbounded stack.

        With slabs of 3 and 8 total series, slab boundaries fall inside
        groups — the split must not perturb any model's float stream.
        """
        groups = [
            make_histories(2, 24 * 4, seed=10),
            make_histories(4, 24 * 4, seed=11),
            make_histories(2, 24 * 4, seed=12),
        ]
        monkeypatch.setattr(batched, "FUSED_SLAB_MODELS", 1_000_000)
        unbounded = fit_fleet(groups)
        monkeypatch.setattr(batched, "FUSED_SLAB_MODELS", 3)
        slabbed = fit_fleet(groups)
        for wide, narrow in zip(unbounded, slabbed):
            assert_group_equivalent(wide, narrow)

    def test_single_series_fleet(self):
        """One group with one series: a width-1 slab, equal to the oracle."""
        histories = make_histories(1, 24 * 4, seed=20)
        (fused_models,) = fit_fleet([histories])
        serial = SerialNeuralNetPredictor(FAST).fit(histories[0])
        assert_group_equivalent([serial], fused_models)

    def test_equal_length_state_slab_identity(self, monkeypatch):
        """The kernel's own split: slabs of 3 == one unbounded stack."""
        matrix = np.stack(make_histories(7, 24 * 4, seed=30))
        monkeypatch.setattr(batched, "FUSED_SLAB_MODELS", 1_000_000)
        wide_models, wide_state = fit_equal_length_state(matrix, FAST)
        monkeypatch.setattr(batched, "FUSED_SLAB_MODELS", 3)
        slab_models, slab_state = fit_equal_length_state(matrix, FAST)
        assert_group_equivalent(wide_models, slab_models)
        np.testing.assert_array_equal(wide_state.params, slab_state.params)
        np.testing.assert_array_equal(wide_state.epochs, slab_state.epochs)

    def test_width_one_slabs_identical(self, monkeypatch):
        """Slabs of 1 degenerate to per-model fits — still bit-identical.

        The strongest width-stability pin: every reduction in the kernel
        is per-row flat, so even a (1, n) slab stays in the same float
        family as the unbounded wide stack.
        """
        matrix = np.stack(make_histories(3, 24 * 4, seed=33))
        wide_models, wide_state = fit_equal_length_state(matrix, FAST)
        monkeypatch.setattr(batched, "FUSED_SLAB_MODELS", 1)
        slab_models, slab_state = fit_equal_length_state(matrix, FAST)
        assert_group_equivalent(wide_models, slab_models)
        np.testing.assert_array_equal(wide_state.params, slab_state.params)


class TestFailureIsolation:
    def test_bad_group_keeps_its_exception_others_fit(self):
        """A group with an invalid history gets the exception a one-box fit
        raises; neighbors still fit."""
        good = make_histories(2, 24 * 4, seed=40)
        bad = [np.full(24 * 4, np.nan)]  # non-finite -> validation failure
        short = [np.arange(5.0)]  # too short for period+2
        fused = fit_fleet([good, bad, short])
        for group, got in ((bad, fused[1]), (short, fused[2])):
            with pytest.raises(ValueError) as one_box:
                fit_one_box(group)
            assert repr(got) == repr(one_box.value)
        assert_group_equivalent(fit_one_box(good), fused[0])

    def test_all_groups_bad(self):
        [fused] = fit_fleet([[np.full(10, np.nan)]])
        assert isinstance(fused, ValueError)

    def test_one_box_form_raises_and_counts_nothing(self):
        """The registry's one-box fit: its own error, no fused instruments."""
        obs.reset_metrics()
        with pytest.raises(ValueError) as one_box_error:
            fit_temporal_batch("neural", [np.arange(5.0)], period=24)
        with pytest.raises(ValueError) as serial_error:
            NeuralNetPredictor(FAST).fit(np.arange(5.0))
        assert repr(one_box_error.value) == repr(serial_error.value)
        fit_temporal_batch("neural", make_histories(2, 24 * 4, seed=41), period=24)
        snap = obs.metrics_snapshot()
        assert "fused.groups" not in snap["counters"]
        assert "fused.models_per_pass" not in snap["gauges"]


class TestRegistry:
    def test_neural_has_fleet_fitter(self):
        """The kernel model fuses across groups; others fit group by group."""
        groups = [make_histories(2, 24 * 5, seed=52, period=24)]
        for name, fuses in (("neural", True), ("seasonal_mean", False)):
            obs.reset_metrics()
            fit_temporal_fleet_batch(name, groups, period=24)
            counters = obs.metrics_snapshot()["counters"]
            assert ("fused.groups" in counters) == fuses, name

    def test_unsupported_model_raises(self):
        with pytest.raises(ValueError, match="unknown temporal model"):
            fit_temporal_fleet_batch("no_such_model", [[np.arange(48.0)]])

    def test_series_model_fleet_batch_keeps_group_errors(self):
        """A model without a kernel: per-group fits, a bad group's own error."""
        good = make_histories(2, 24 * 5, seed=53, period=24)
        bad = [np.full(24 * 5, np.nan)]
        fused = fit_temporal_fleet_batch("seasonal_mean", [good, bad], period=24)
        per_box = fit_temporal_batch("seasonal_mean", good, period=24)
        for s, f in zip(per_box, fused[0], strict=True):
            assert s.predict(24).tobytes() == f.predict(24).tobytes()
        with pytest.raises(Exception) as one_box:
            fit_temporal_batch("seasonal_mean", bad, period=24)
        assert repr(fused[1]) == repr(one_box.value)

    def test_fleet_batch_matches_per_group_batch(self):
        groups = [
            make_histories(2, 24 * 5, seed=50, period=24),
            make_histories(3, 24 * 5, seed=51, period=24),
        ]
        # Registry entry points use the default MlpConfig at this period.
        fused = fit_temporal_fleet_batch("neural", groups, period=24)
        for group, fused_models in zip(groups, fused):
            per_box = fit_temporal_batch("neural", group, period=24)
            assert_group_equivalent(per_box, fused_models, horizon=24)


class TestObservability:
    def test_counters_and_gauge(self):
        obs.reset_metrics()
        groups = [
            make_histories(2, 24 * 4, seed=60),
            make_histories(3, 24 * 4, seed=61),  # same length bucket: fused
            make_histories(2, 24 * 5, seed=62),  # second length bucket
        ]
        fit_temporal_fleet_batch("neural", groups, period=24)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["fused.groups"] == 2  # one per length bucket
        assert snap["gauges"]["fused.models_per_pass"] == 5.0

    def test_models_per_pass_capped_by_slab(self, monkeypatch):
        obs.reset_metrics()
        monkeypatch.setattr(batched, "FUSED_SLAB_MODELS", 2)
        fit_temporal_fleet_batch("neural", [make_histories(5, 24 * 4, seed=63)], period=24)
        snap = obs.metrics_snapshot()
        assert snap["gauges"]["fused.models_per_pass"] == 2.0

    def test_default_slab_width_is_bounded(self):
        # The RSS contract: mega-batches train as bounded slabs, never the
        # whole fleet at once.
        assert 1 <= FUSED_SLAB_MODELS <= 256
