"""Warm-started batched refits: equivalence, guard, persistence.

The warm kernel's contract (see ``repro.prediction.temporal.warm``):

* with no initializer it is the cold kernel, bit-identical to per-series
  ``NeuralNetPredictor`` fits and to the reference loop in
  :mod:`tests.prediction.mlp_oracle`;
* a warm-started refit converges in far fewer epochs than a cold fit;
* the validation-loss guard cold-refits any model whose warm fit lands
  materially worse than its previous best — deterministically forced here
  with a garbage initializer, after which the result must be bit-identical
  to an all-cold fit;
* every fit persists its state to the store's disk tier, and a replayed
  identical fit is served with zero training;
* many boxes' requests fitted in one fleet call (shared warm and cold
  passes, a mixed-length box's rows spread over cold passes of two
  lengths) give each box exactly its one-box outcome, served from the
  store or trained.
"""

import numpy as np
import pytest

from repro import obs
from repro.prediction.temporal.batched import (
    BatchFitState,
    fit_equal_length_state,
)
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor
from repro.prediction.temporal.warm import (
    WARM_PATIENCE,
    fit_neural_fleet_warm,
    warm_state_key,
)
from repro.store import ArtifactKey
from tests.prediction.mlp_oracle import serial_fits

CFG = MlpConfig(period=24, max_epochs=60, seed=7)
HORIZON = 24


def _histories(k=3, periods=6, seed=0, offset=0):
    """K correlated daily-seasonal series; ``offset`` slides the window."""
    rng = np.random.default_rng(seed)
    n = CFG.period * periods
    t = np.arange(offset, offset + n)
    base = np.sin(t * 2 * np.pi / CFG.period) + 2.0
    return [
        base * rng.uniform(0.8, 1.2) + rng.normal(0.0, 0.05, size=n)
        for _ in range(k)
    ]


def fit_neural_batch_warm(histories, cfg, warm=None):
    """One box's warm-chained fit: the one-request case of the fleet form."""
    (outcome,) = fit_neural_fleet_warm([(histories, warm)], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _plain_fit(histories):
    """Per-series cold fits, which the warm kernel must match without a state."""
    return [NeuralNetPredictor(CFG).fit(h) for h in histories]


def _predictions(models):
    return np.stack([m.predict(HORIZON) for m in models])


@pytest.fixture
def counters():
    obs.reset_metrics()
    yield lambda: obs.metrics_snapshot()["counters"]
    obs.reset_metrics()


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    return tmp_path


class TestColdEquivalence:
    def test_no_initializer_matches_plain_batch_kernel(self):
        histories = _histories()
        warm_models, state = fit_neural_batch_warm(histories, CFG)
        plain = _plain_fit(histories)
        assert state is not None
        np.testing.assert_array_equal(_predictions(warm_models), _predictions(plain))

    def test_single_history_matches_serial_fit(self):
        histories = _histories(k=1)
        warm_models, state = fit_neural_batch_warm(histories, CFG)
        serial = serial_fits(histories, CFG)
        assert state is not None and state.params.shape[0] == 1
        assert warm_models[0]._fit_epochs == serial[0]._fit_epochs
        np.testing.assert_array_equal(_predictions(warm_models), _predictions(serial))

    def test_mixed_lengths_fall_back_without_state(self):
        histories = _histories(k=2) + _histories(k=1, periods=8, seed=5)
        models, state = fit_neural_batch_warm(histories, CFG)
        assert state is None
        np.testing.assert_array_equal(
            _predictions(models), _predictions(_plain_fit(histories))
        )


class TestWarmChain:
    def test_warm_refit_converges_in_fewer_epochs(self, counters):
        _, cold_state = fit_neural_batch_warm(_histories(), CFG)
        warm_models, warm_state = fit_neural_batch_warm(
            _histories(offset=CFG.period), CFG, warm=cold_state
        )
        assert warm_state is not None
        assert warm_state.epochs.mean() < cold_state.epochs.mean()
        assert np.isfinite(_predictions(warm_models)).all()
        c = counters()
        assert c["warm.models_warm"] == len(warm_models)
        assert c.get("warm.guard_cold_refits", 0) == 0

    def test_warm_never_worse_on_validation_than_initializer(self):
        _, cold_state = fit_neural_batch_warm(_histories(), CFG)
        histories = _histories(offset=CFG.period)
        stack = np.stack([np.asarray(h, dtype=float) for h in histories])
        _, warm_state = fit_neural_batch_warm(histories, CFG, warm=cold_state)
        # The initializer's own val loss on the new window seeds best_val,
        # so further training can only improve on it: a zero-patience fit
        # (stops at the first non-improving epoch, i.e. essentially the
        # initializer's own loss) bounds the chained state from above.
        _, floor_state = fit_equal_length_state(
            stack, CFG, init_params=cold_state.params, patience=0
        )
        assert np.isfinite(warm_state.best_val).all()
        assert np.all(warm_state.best_val <= floor_state.best_val + 1e-12)

    def test_shape_mismatched_initializer_is_ignored(self):
        _, small_state = fit_neural_batch_warm(_histories(k=2), CFG)
        histories = _histories(k=3)
        models, state = fit_neural_batch_warm(histories, CFG, warm=small_state)
        assert state is not None and state.params.shape[0] == 3
        np.testing.assert_array_equal(
            _predictions(models), _predictions(_plain_fit(histories))
        )


class TestValidationGuard:
    def test_garbage_initializer_forces_cold_refit(self, counters):
        histories = _histories()
        stack = np.stack([np.asarray(h, dtype=float) for h in histories])
        _, honest = fit_neural_batch_warm(histories, CFG)
        garbage = BatchFitState(
            params=np.full_like(honest.params, 50.0),
            # A sub-float-noise previous best: any refit outcome exceeds
            # GUARD_RATIO x this, so the guard must fire for every model.
            best_val=np.full(len(histories), 1e-12),
            epochs=np.zeros(len(histories), dtype=int),
        )
        models, state = fit_neural_batch_warm(histories, CFG, warm=garbage)
        c = counters()
        assert c["warm.guard_cold_refits"] == len(histories)
        assert c.get("warm.models_warm", 0) == 0
        cold_models, cold_state = fit_equal_length_state(stack, CFG)
        np.testing.assert_array_equal(_predictions(models), _predictions(cold_models))
        np.testing.assert_array_equal(state.params, cold_state.params)
        np.testing.assert_array_equal(state.best_val, cold_state.best_val)

    def test_healthy_initializer_keeps_guard_quiet(self, counters):
        _, cold_state = fit_neural_batch_warm(_histories(), CFG)
        fit_neural_batch_warm(_histories(offset=CFG.period), CFG, warm=cold_state)
        assert counters().get("warm.guard_cold_refits", 0) == 0


class TestPersistence:
    def test_identical_refit_is_served_from_store(self, store_env, counters):
        histories = _histories()
        models, state = fit_neural_batch_warm(histories, CFG)
        served, served_state = fit_neural_batch_warm(histories, CFG)
        c = counters()
        assert c["warm.resume_hits"] == 1
        assert c["warm.cold_batches"] == 1  # only the first call trained
        np.testing.assert_array_equal(_predictions(served), _predictions(models))
        np.testing.assert_array_equal(served_state.params, state.params)
        np.testing.assert_array_equal(served_state.best_val, state.best_val)

    def test_warm_chain_replay_is_served_from_store(self, store_env, counters):
        _, cold_state = fit_neural_batch_warm(_histories(), CFG)
        advanced = _histories(offset=CFG.period)
        models, _ = fit_neural_batch_warm(advanced, CFG, warm=cold_state)
        replayed, _ = fit_neural_batch_warm(advanced, CFG, warm=cold_state)
        assert counters()["warm.resume_hits"] == 1
        np.testing.assert_array_equal(_predictions(replayed), _predictions(models))

    def test_different_initializer_chains_never_collide(self, store_env):
        histories = _histories()
        _, state_a = fit_neural_batch_warm(_histories(seed=11), CFG)
        _, state_b = fit_neural_batch_warm(_histories(seed=12), CFG)
        stack = np.stack([np.asarray(h, dtype=float) for h in histories])
        key_a = warm_state_key(stack, CFG, state_a)
        key_b = warm_state_key(stack, CFG, state_b)
        key_cold = warm_state_key(stack, CFG, None)
        assert len({key_a, key_b, key_cold}) == 3

    def test_keys_are_stable_across_releases(self):
        # Literal keys of an earlier release: a change to the key payload
        # (e.g. dropping the folded-in guard ratio) would orphan every
        # persisted warm state, so it must show up here first.
        stack = np.stack(_histories())
        init = BatchFitState(
            params=np.ones((3, 5)),
            best_val=np.full(3, 0.5),
            epochs=np.zeros(3, dtype=int),
        )
        data_fp = "550e2ed258922cca6bd7d57a2ebbb5f8c71954fa"
        assert warm_state_key(stack, CFG, None) == ArtifactKey(
            "warm_params", data_fp, "154a9a58da9b133a7e82ab198ffbde0b76ddfc78"
        )
        assert warm_state_key(stack, CFG, init) == ArtifactKey(
            "warm_params", data_fp, "677635738650bbbdcb10bc62b9f329d799d67d97"
        )

    def test_no_store_means_no_persistence_but_working_chain(self, counters):
        _, cold_state = fit_neural_batch_warm(_histories(), CFG)
        models, state = fit_neural_batch_warm(
            _histories(offset=CFG.period), CFG, warm=cold_state
        )
        assert state is not None
        assert counters().get("warm.resume_hits", 0) == 0
        assert np.isfinite(_predictions(models)).all()


class TestWarmPatience:
    def test_warm_fits_use_finetune_patience(self):
        _, cold_state = fit_neural_batch_warm(_histories(), CFG)
        _, warm_state = fit_neural_batch_warm(
            _histories(offset=CFG.period), CFG, warm=cold_state
        )
        # Epochs are bounded by the fine-tune schedule, not the cold one:
        # a model that never improves on its initializer stops after
        # exactly WARM_PATIENCE epochs.
        assert warm_state.epochs.min() >= WARM_PATIENCE
        assert warm_state.epochs.max() <= CFG.max_epochs


def _assert_same_outcome(fleet_outcome, alone):
    models, state = fleet_outcome
    alone_models, alone_state = alone
    np.testing.assert_array_equal(_predictions(models), _predictions(alone_models))
    assert [m._fit_epochs for m in models] == [m._fit_epochs for m in alone_models]
    if alone_state is None:  # a mixed-length box has no (K, P) state
        assert state is None
        return
    assert state.params.tobytes() == alone_state.params.tobytes()
    assert state.best_val.tobytes() == alone_state.best_val.tobytes()
    assert state.epochs.tobytes() == alone_state.epochs.tobytes()


class TestFleetWarm:
    """Boxes fitted together share passes but not outcomes."""

    def _requests(self):
        _, state_a = fit_neural_batch_warm(_histories(k=3, seed=1), CFG)
        _, state_b = fit_neural_batch_warm(_histories(k=2, seed=2), CFG)
        garbage = BatchFitState(
            params=np.full_like(state_b.params, 50.0),
            best_val=np.full(2, 1e-12),
            epochs=np.zeros(2, dtype=int),
        )
        return [
            (_histories(k=3, seed=1, offset=CFG.period), state_a),  # warm
            (_histories(k=4, seed=3), None),  # cold
            (_histories(k=2, seed=2, offset=CFG.period), garbage),  # guard fires
            (_histories(k=2, seed=4), state_a),  # K mismatch: cold
            # Mixed lengths: one row joins the k=4 box's cold pass, one a
            # cold pass of its own length.
            (_histories(k=1, seed=5) + _histories(k=1, periods=8, seed=6), None),
        ]

    def test_each_box_matches_its_one_box_fit(self, counters):
        requests = self._requests()
        alone = [fit_neural_batch_warm(h, CFG, warm=w) for h, w in requests]
        obs.reset_metrics()
        fleet = fit_neural_fleet_warm(requests, CFG)
        for outcome, expected in zip(fleet, alone):
            _assert_same_outcome(outcome, expected)
        c = counters()
        assert c["warm.guard_cold_refits"] == 2
        assert c["warm.models_warm"] == 3
        assert c["warm.cold_batches"] == 3

    def test_passes_are_shared_across_boxes(self, counters):
        requests = self._requests()
        fit_neural_fleet_warm(requests, CFG)
        fused_steps = counters()["mlp.steps"]
        obs.reset_metrics()
        for histories, warm in requests:
            fit_neural_batch_warm(histories, CFG, warm=warm)
        assert fused_steps < counters()["mlp.steps"]

    def test_a_failing_box_costs_only_itself(self):
        requests = self._requests()
        poisoned = [h.copy() for h in requests[1][0]]
        poisoned[0][5] = np.nan
        requests[1] = (poisoned, None)
        fleet = fit_neural_fleet_warm(requests, CFG)
        assert isinstance(fleet[1], ValueError)
        for pos in (0, 2, 3, 4):
            histories, warm = requests[pos]
            _assert_same_outcome(fleet[pos], fit_neural_batch_warm(histories, CFG, warm=warm))

    def test_each_box_persists_under_its_own_key(self, store_env, counters):
        requests = self._requests()
        fleet = fit_neural_fleet_warm(requests, CFG)
        obs.reset_metrics()
        served = fit_neural_fleet_warm(requests, CFG)
        # Every box with a (K, P) state is served; the mixed-length box retrains.
        assert counters()["warm.resume_hits"] == len(requests) - 1
        for outcome, expected in zip(served, fleet):
            _assert_same_outcome(outcome, expected)
