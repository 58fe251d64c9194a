"""Warm-started temporal refits: resume each online step from the last.

An online controller step advances the training window by one day and
refits every signature MLP.  The previous step's weights are a
near-optimal initializer for the advanced window (arXiv 2007.08092 makes
the same observation for cluster-CPU forecasters), so instead of
cold-training from the He init, :func:`fit_neural_fleet_warm` seeds the
batched kernel (:mod:`repro.prediction.temporal.batched`) with the prior
step's flat ``(K, P)`` buffer.  The warm parameters' own validation loss
becomes the early-stopping baseline, so an already-converged batch stops
after ``patience`` epochs instead of re-running the full schedule.  The
controller steps a chunk of boxes together, so one call fits every
box's refit of the step: the boxes' rows share one warm pass and one
cold pass, and each box's outcome is bit-identical to fitting it alone.

Three safety properties:

* **Validation-loss guard** — warm starts can trap a model in a stale
  optimum after a regime change.  Any model whose new best validation
  loss exceeds ``GUARD_RATIO`` × its previous best is cold-refit (in the
  step's cold pass) and spliced back in, so warm-starting never ships
  a model materially worse than the cold path's.
* **Persistence** — every fit's outcome is persisted to the artifact
  store's disk tier (stage ``"warm_params"``), content-addressed by the
  training matrix, the config *and the initializer that produced it*.  A
  restarted run replays the same deterministic chain, hits the same keys,
  and serves each already-computed refit with zero training — interrupted
  online runs warm-resume bit-identically.
* **Cold equivalence** — with no initializer the fit is the cold kernel,
  bit-identical to the per-series fits.

Only the online controller chains fits (it passes each box's
:attr:`~repro.prediction.combined.SpatialTemporalPredictor.warm_state`
back in); one-shot offline fits stay cold.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.prediction.base import validate_history
from repro.prediction.temporal.batched import (
    FUSED_SLAB_MODELS,
    BatchFitState,
    fit_equal_length_state,
    fit_neural_fused,
    models_from_params,
    n_params,
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
    "fit_neural_fleet_warm",
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


class _Job(NamedTuple):
    """One box's equal-length fit: its rows, initializer and store key."""

    pos: int
    stack: np.ndarray
    init: Optional[BatchFitState]
    key: Optional[ArtifactKey]


def fit_neural_fleet_warm(
    requests: Sequence[Tuple[Sequence[Sequence[float]], Optional[BatchFitState]]],
    config: Optional[MlpConfig] = None,
) -> List[Union[Tuple[List[NeuralNetPredictor], Optional[BatchFitState]], Exception]]:
    """Fit many boxes' warm-chained refits in cross-box passes.

    Each request is one box's signature histories and the state of its
    previous fit (``None``: cold).  Returns one ``(models, state)``
    outcome per request, in order; feed each box's ``state`` back as its
    next request's initializer to chain.  An initializer is
    ignored (cold fit, fresh state) when its ``(K, P)`` shape no longer
    matches the box, e.g. after a signature re-search changed K.
    Histories of mixed lengths have no single ``(K, P)`` buffer; those
    take the cold one-box :func:`fit_neural_fused` fit and carry no state.

    With a persistent store each box is first served from its own
    :func:`warm_state_key`.  The rest train together, per history length:
    every warm box's rows and initializers in one
    ``fit_equal_length_state`` at fine-tune patience, then one cold pass
    over the cold boxes' rows and every warm row the guard rejected.
    The passes run in slabs of :data:`FUSED_SLAB_MODELS`; because every
    row's fit is row-local (the argument of :func:`fit_neural_fused`),
    each box's models and state are bit-identical to fitting it alone,
    and each state is stored under the box's own key.

    A box whose histories fail validation gets that exception as its
    outcome, so one bad box never costs the others their fits.
    """
    cfg = config or MlpConfig()
    persistent = default_store().persistent
    out: list = [None] * len(requests)
    by_length: Dict[int, List[_Job]] = {}
    for pos, (histories, warm) in enumerate(requests):
        try:
            arrs = [validate_history(h, minimum=cfg.period + 2) for h in histories]
        except Exception as exc:
            out[pos] = exc
            continue
        if not arrs or len({arr.size for arr in arrs}) != 1:
            (models,) = fit_neural_fused([arrs], cfg, fleet=False)
            out[pos] = (models, None)
            continue
        stack = np.stack(arrs)
        init = warm if _fits(warm, stack, cfg) else None
        # Without a persistent store nothing is read or written, so no key
        # is hashed.
        key = warm_state_key(stack, cfg, init) if persistent else None
        if key is not None:
            out[pos] = _serve_cached(stack, cfg, key)
            if out[pos] is not None:
                continue
        by_length.setdefault(stack.shape[1], []).append(_Job(pos, stack, init, key))
    for jobs in by_length.values():
        for job, fitted in zip(jobs, _fit_jobs(jobs, cfg)):
            if job.key is not None:
                default_store().put(job.key, fitted[1])
            out[job.pos] = fitted
    return out


def _fits(warm: Optional[BatchFitState], stack: np.ndarray, cfg: MlpConfig) -> bool:
    """Whether ``warm`` can initialize a fit of ``stack``: same ``(K, P)``."""
    return warm is not None and warm.params.shape == (
        stack.shape[0],
        n_params(stack.shape[1], cfg),
    )


def _fit_jobs(
    jobs: Sequence[_Job], cfg: MlpConfig
) -> List[Tuple[List[NeuralNetPredictor], BatchFitState]]:
    """Fit equal-length jobs: one warm pass, then one cold pass."""
    warm_jobs = [job for job in jobs if job.init is not None]
    cold_jobs = [job for job in jobs if job.init is None]
    fitted: Dict[int, Tuple[List[NeuralNetPredictor], BatchFitState]] = {}
    cold_rows: List[np.ndarray] = [job.stack for job in cold_jobs]
    guards: List[Tuple[_Job, np.ndarray]] = []
    with obs.span("warm.fit"):
        if warm_jobs:
            models, state = fit_equal_length_state(
                np.vstack([job.stack for job in warm_jobs]),
                cfg,
                init_params=np.vstack([job.init.params for job in warm_jobs]),
                patience=WARM_PATIENCE,
                max_models=FUSED_SLAB_MODELS,
            )
            lo = 0
            for job in warm_jobs:
                hi = lo + job.stack.shape[0]
                part = _rows(state, lo, hi)
                # Trapped models get the full cold treatment in the cold
                # pass; a cold batch of any width is bit-identical per
                # series, so the spliced rows equal an all-cold fit's.
                guard = part.best_val > GUARD_RATIO * job.init.best_val
                obs.inc("warm.models_warm", float(np.count_nonzero(~guard)))
                if guard.any():
                    obs.inc("warm.guard_cold_refits", float(guard.sum()))
                    guards.append((job, guard))
                    cold_rows.append(job.stack[guard])
                fitted[job.pos] = (models[lo:hi], part)
                lo = hi
        if cold_rows:
            if cold_jobs:
                obs.inc("warm.cold_batches", float(len(cold_jobs)))
            cold_models, cold_state = fit_equal_length_state(
                np.vstack(cold_rows), cfg, max_models=FUSED_SLAB_MODELS
            )
            lo = 0
            for job in cold_jobs:
                hi = lo + job.stack.shape[0]
                fitted[job.pos] = (cold_models[lo:hi], _rows(cold_state, lo, hi))
                lo = hi
            for job, guard in guards:
                hi = lo + int(guard.sum())
                models, part = fitted[job.pos]
                for row, model in zip(np.flatnonzero(guard), cold_models[lo:hi]):
                    models[row] = model
                part.params[guard] = cold_state.params[lo:hi]
                part.best_val[guard] = cold_state.best_val[lo:hi]
                part.epochs[guard] += cold_state.epochs[lo:hi]
                lo = hi
    return [fitted[job.pos] for job in jobs]


def _rows(state: BatchFitState, lo: int, hi: int) -> BatchFitState:
    """Rows ``[lo, hi)`` of a fused fit's state, as one box's own state."""
    return BatchFitState(
        params=state.params[lo:hi].copy(),
        best_val=state.best_val[lo:hi].copy(),
        epochs=state.epochs[lo:hi].copy(),
    )


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
