"""Warm-started temporal refits: resume each online step from the last.

An online controller step advances the training window by one day and
refits every signature MLP.  The previous step's weights are a
near-optimal initializer for the advanced window (arXiv 2007.08092 makes
the same observation for cluster-CPU forecasters), so instead of
cold-training from the He init, :func:`fit_neural_batch_warm` seeds the
batched kernel (:mod:`repro.prediction.temporal.batched`) with the prior
step's flat ``(K, P)`` buffer.  The warm parameters' own validation loss
becomes the early-stopping baseline, so an already-converged batch stops
after ``patience`` epochs instead of re-running the full schedule.

Three safety properties:

* **Validation-loss guard** — warm starts can trap a model in a stale
  optimum after a regime change.  Any model whose new best validation
  loss exceeds ``GUARD_RATIO`` × its previous best is cold-refit (as a
  compacted sub-batch) and spliced back in, so warm-starting never ships
  a model materially worse than the cold path's.
* **Persistence** — every fit's outcome is persisted to the artifact
  store's disk tier (stage ``"warm_params"``), content-addressed by the
  training matrix, the config *and the initializer that produced it*.  A
  restarted run replays the same deterministic chain, hits the same keys,
  and serves each already-computed refit with zero training — interrupted
  online runs warm-resume bit-identically.
* **Cold equivalence** — with no initializer the fit is the cold kernel,
  bit-identical to the per-series fits.

Callers opt in per predictor (``SpatialTemporalPredictor(warm_refits=True)``,
as the online controller does); one-shot offline fits stay cold.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.prediction.base import validate_history
from repro.prediction.temporal.batched import (
    BatchFitState,
    fit_equal_length_state,
    fit_neural_fused,
    models_from_params,
)
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor
from repro.store import (
    ArtifactKey,
    config_fingerprint,
    data_fingerprint,
    default_store,
    register_codec,
)

__all__ = [
    "GUARD_RATIO",
    "WARM_PATIENCE",
    "WARM_STAGE",
    "fit_neural_batch_warm",
    "warm_state_key",
]

#: Artifact-store stage name of persisted warm-start states.
WARM_STAGE = "warm_params"

#: A warm refit whose best validation loss exceeds ``GUARD_RATIO`` times
#: the previous step's is considered trapped and is cold-refit.  Adjacent
#: online windows overlap by all but one day, yet their validation splits
#: differ, and on stable synthetic workloads that alone produces ratios
#: up to ~16 — so the band leaves 2x headroom over the measured healthy
#: variance.  A model genuinely trapped after a regime change starts (and
#: stays, at fine-tune patience) orders of magnitude above its old best,
#: far past any such band.
GUARD_RATIO = 32.0

#: Early-stopping patience of warm-started fits (fine-tuning, not
#: training): the initializer already sits near the advanced window's
#: optimum, so the cold schedule's patience mostly chases sub-1e-6
#: validation wiggles for tens of epochs.  Guard-triggered cold refits
#: always use the config's full patience.
WARM_PATIENCE = 3


def warm_state_key(
    stack: np.ndarray,
    cfg: MlpConfig,
    init: Optional[BatchFitState],
) -> ArtifactKey:
    """Content address of one (possibly warm-started) batched fit.

    The initializer is part of the address: a refit's outcome depends on
    the weights it resumed from, so two runs with different refit chains
    (different cadence or drift thresholds) never serve each other's
    states, while a deterministic replay of the *same* chain hits every
    key exactly.
    """
    if init is None:
        init_desc: object = "cold"
    else:
        init_desc = {"params": init.params, "best_val": init.best_val}
    config_fp = config_fingerprint(
        {
            "config": cfg,
            "guard_ratio": GUARD_RATIO,
            "init": init_desc,
            # The effective fine-tune patience shapes the outcome, so a
            # future change must miss (and recompute) old artifacts.
            "patience": cfg.patience if init is None else WARM_PATIENCE,
        }
    )
    return ArtifactKey(WARM_STAGE, data_fingerprint(stack), config_fp)


def fit_neural_batch_warm(
    histories: Sequence[Sequence[float]],
    config: Optional[MlpConfig] = None,
    warm: Optional[BatchFitState] = None,
) -> Tuple[List[NeuralNetPredictor], Optional[BatchFitState]]:
    """Fit one predictor per history, warm-started from a prior state.

    Returns ``(models, state)``; feed ``state`` back as ``warm`` on the
    next refit to chain.  ``warm`` is ignored (cold fit, fresh state) when
    its shape no longer matches — e.g. after a signature re-search changed
    K.  Histories of mixed lengths have no single ``(K, P)`` buffer; those
    take the cold one-box :func:`fit_neural_fused` fit and carry no state.
    """
    cfg = config or MlpConfig()
    arrs = [validate_history(h, minimum=cfg.period + 2) for h in histories]
    if not arrs or len({arr.size for arr in arrs}) != 1:
        (models,) = fit_neural_fused([arrs], cfg, fleet=False)
        return models, None
    stack = np.stack(arrs)

    init = warm
    if init is not None and (
        init.params.ndim != 2 or init.params.shape[0] != stack.shape[0]
    ):
        init = None
    if init is not None:
        fitted = _fit_with_init(stack, cfg, init)
        if fitted is not None:
            return fitted
        init = None  # parameter-count mismatch: topology changed, go cold
    return _fit_cold(stack, cfg)


def _serve_cached(
    stack: np.ndarray, cfg: MlpConfig, key: ArtifactKey
) -> Optional[Tuple[List[NeuralNetPredictor], BatchFitState]]:
    """Serve a persisted refit with zero training, if the store has it."""
    cached = default_store().get(key)
    if not isinstance(cached, BatchFitState):
        return None
    if cached.params.ndim != 2 or cached.params.shape[0] != stack.shape[0]:
        return None
    try:
        models = models_from_params(stack, cfg, cached)
    except (ValueError, IndexError):  # stale topology on disk
        return None
    obs.inc("warm.resume_hits")
    return models, cached


def _fit_with_init(
    stack: np.ndarray, cfg: MlpConfig, init: BatchFitState
) -> Optional[Tuple[List[NeuralNetPredictor], BatchFitState]]:
    key = warm_state_key(stack, cfg, init)
    served = _serve_cached(stack, cfg, key)
    if served is not None:
        return served
    with obs.span("warm.fit"):
        try:
            models, state = fit_equal_length_state(
                stack, cfg, init_params=init.params, patience=WARM_PATIENCE
            )
        except ValueError:
            return None
        guard = state.best_val > GUARD_RATIO * init.best_val
        if guard.any():
            # Trapped models get the full cold treatment as a sub-batch;
            # a cold batch of any width is bit-identical per series, so
            # the spliced rows equal what an all-cold fit would produce.
            obs.inc("warm.guard_cold_refits", float(guard.sum()))
            cold_models, cold_state = fit_equal_length_state(stack[guard], cfg)
            for row, model in zip(np.flatnonzero(guard), cold_models):
                models[row] = model
            state.params[guard] = cold_state.params
            state.best_val[guard] = cold_state.best_val
            state.epochs[guard] += cold_state.epochs
        obs.inc("warm.models_warm", float(np.count_nonzero(~guard)))
    default_store().put(key, state)
    return models, state


def _fit_cold(
    stack: np.ndarray, cfg: MlpConfig
) -> Tuple[List[NeuralNetPredictor], BatchFitState]:
    key = warm_state_key(stack, cfg, None)
    served = _serve_cached(stack, cfg, key)
    if served is not None:
        return served
    with obs.span("warm.fit"):
        obs.inc("warm.cold_batches")
        models, state = fit_equal_length_state(stack, cfg)
    default_store().put(key, state)
    return models, state


# ----------------------------------------------------------------- codec
def _encode_warm_state(state: BatchFitState):
    arrays = {
        "params": np.asarray(state.params, dtype=float),
        "best_val": np.asarray(state.best_val, dtype=float),
        "epochs": np.asarray(state.epochs, dtype=np.int64),
    }
    return arrays, {}


def _decode_warm_state(arrays, meta) -> BatchFitState:
    return BatchFitState(
        params=np.array(arrays["params"], dtype=float),
        best_val=np.array(arrays["best_val"], dtype=float),
        epochs=np.array(arrays["epochs"], dtype=np.int64),
    )


register_codec(WARM_STAGE, _encode_warm_state, _decode_warm_state)
