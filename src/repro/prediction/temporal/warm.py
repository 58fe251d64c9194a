"""The neural fleet trainer: many boxes' MLP fits, cold or warm-started.

ATM trains one small MLP per signature series.  :func:`fit_neural_fleet`
fits many boxes' signature series at once through the batched kernel
(:mod:`repro.prediction.temporal.batched`), each box cold or resumed from
the state of its previous fit.  It is the one multi-box neural trainer:
the offline pipeline's fused fleet fit is its all-cold case, a one-box
fit its one-request case, and the online controller's chained refits
(:func:`fit_neural_fleet_warm`) its warm case.

An online controller step advances the training window by one day and
refits every signature MLP.  The previous step's weights are a
near-optimal initializer for the advanced window (arXiv 2007.08092 makes
the same observation for cluster-CPU forecasters), so instead of
cold-training from the He init, a warm request seeds the kernel with the
prior step's flat ``(K, P)`` buffer.  The warm parameters' own validation
loss becomes the early-stopping baseline, so an already-converged batch
stops after :data:`WARM_PATIENCE` epochs instead of re-running the full
schedule.

Per history length the trainer runs two passes: one warm pass over every
warm box's rows, then one cold pass over the rows of cold boxes, the rows
the validation guard rejected and the rows of boxes whose series differ
in length.  Every row's fit is row-local (its own copy of the shared-seed
RNG stream, row-local tensor math), so each box's models and state are
bit-identical to fitting it alone, whichever boxes share its passes.

Three safety properties:

* **Validation-loss guard** — warm starts can trap a model in a stale
  optimum after a regime change.  Any model whose new best validation
  loss exceeds ``GUARD_RATIO`` × its previous best is cold-refit (in the
  cold pass) and spliced back in with its cold state, so warm-starting
  never ships a model materially worse than the cold path's.
* **Persistence** — the online controller's entry,
  :func:`fit_neural_fleet_warm`, persists every fit's outcome to the
  artifact store's disk tier (stage ``"warm_params"``), content-addressed
  by the training matrix, the config *and the initializer that produced
  it*.  A restarted run replays the same deterministic chain, hits the
  same keys, and serves each already-computed refit with zero training —
  interrupted online runs warm-resume bit-identically.  Offline fits go
  to :func:`fit_neural_fleet` directly and persist nothing here.
* **Cold equivalence** — with no initializer the fit is the cold kernel,
  bit-identical to the per-series fits.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.prediction.base import validate_history
from repro.prediction.temporal.batched import (
    BatchFitState,
    fit_equal_length_state,
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
    "fit_neural_fleet",
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


#: One box's fit request, ``(histories, state of its previous fit or None)``.
Request = Tuple[Sequence[Sequence[float]], Optional[BatchFitState]]
#: One box's outcome: ``(models, state)``, or the exception its fit raised.
Outcome = Union[Tuple[List[NeuralNetPredictor], Optional[BatchFitState]], Exception]


class _Job(NamedTuple):
    """One box's validated request: its rows and the initializer it uses."""

    pos: int
    rows: List[np.ndarray]
    init: Optional[BatchFitState]


def fit_neural_fleet(requests: Sequence[Request], config: MlpConfig) -> List[Outcome]:
    """Fit many boxes' signature models, each cold or warm-started.

    Each request is one box's signature histories and the state of its
    previous fit (``None``: cold).  Returns one ``(models, state)``
    outcome per request, in order; feed each box's ``state`` back as its
    next request's initializer to chain.  An initializer is ignored
    (cold fit, fresh state) when its ``(K, P)`` shape no longer matches
    the box, e.g. after a signature re-search changed K.  A box whose
    histories differ in length has no single ``(K, P)`` buffer: its rows
    fit cold and its state is ``None``.

    A box whose histories fail validation gets that exception as its
    outcome, so one bad box never costs the others their fits.  Nothing
    is read from or written to the store.
    """
    out, jobs = _validate(requests, config)
    for job, fitted in zip(jobs, _train(jobs, config)):
        out[job.pos] = fitted
    return out


def fit_neural_fleet_warm(
    requests: Sequence[Request], config: Optional[MlpConfig] = None
) -> List[Outcome]:
    """The online controller's fleet fit: :func:`fit_neural_fleet` behind the store.

    With a persistent store each box that has one ``(K, P)`` state is
    first served from its own :func:`warm_state_key`; the rest train
    together, and each trained state is stored under its box's key.
    Without a persistent store nothing is hashed, read or written.
    """
    cfg = config or MlpConfig()
    out, jobs = _validate(requests, cfg)
    keys: Dict[int, ArtifactKey] = {}
    if default_store().persistent:
        pending = []
        for job in jobs:
            if _equal_length(job.rows):
                stack = np.stack(job.rows)
                key = warm_state_key(stack, cfg, job.init)
                out[job.pos] = _serve_cached(stack, cfg, key)
                if out[job.pos] is not None:
                    continue
                keys[job.pos] = key
            pending.append(job)
        jobs = pending
    if not jobs:
        return out
    cold = sum(job.init is None for job in jobs)
    if cold:
        obs.inc("warm.cold_batches", float(cold))
    with obs.span("warm.fit"):
        fitted = _train(jobs, cfg)
    for job, (models, state) in zip(jobs, fitted):
        if job.pos in keys:
            default_store().put(keys[job.pos], state)
        out[job.pos] = (models, state)
    return out


def _validate(
    requests: Sequence[Request], cfg: MlpConfig
) -> Tuple[List[Optional[Outcome]], List[_Job]]:
    """Each failing request's exception, and the jobs of the others."""
    out: List[Optional[Outcome]] = [None] * len(requests)
    jobs: List[_Job] = []
    for pos, (histories, warm) in enumerate(requests):
        try:
            rows = [validate_history(h, minimum=cfg.period + 2) for h in histories]
        except Exception as exc:
            out[pos] = exc
            continue
        usable = (
            warm is not None
            and _equal_length(rows)
            and warm.params.shape == (len(rows), n_params(rows[0].size, cfg))
        )
        jobs.append(_Job(pos, rows, warm if usable else None))
    return out, jobs


def _equal_length(rows: Sequence[np.ndarray]) -> bool:
    """Whether ``rows`` share one length, so their box has one ``(K, P)`` state."""
    return len({row.size for row in rows}) == 1


def _train(
    jobs: Sequence[_Job], cfg: MlpConfig
) -> List[Tuple[List[NeuralNetPredictor], Optional[BatchFitState]]]:
    """Per history length, one warm pass and then one cold pass."""
    picks: List[list] = [[None] * len(job.rows) for job in jobs]
    warm: Dict[int, List[int]] = {}
    cold: Dict[int, List[Tuple[int, int]]] = {}  # length -> (job, row) members
    for j, job in enumerate(jobs):
        if job.init is not None:
            warm.setdefault(job.rows[0].size, []).append(j)
        else:
            for r, row in enumerate(job.rows):
                cold.setdefault(row.size, []).append((j, r))
    guarded: List[Tuple[int, int]] = []
    for group in warm.values():
        state = _fit_rows(
            jobs,
            [(j, r) for j in group for r in range(len(jobs[j].rows))],
            picks,
            cfg,
            np.vstack([jobs[j].init.params for j in group]),
            WARM_PATIENCE,
        )
        lo = 0
        for j in group:
            init = jobs[j].init
            hi = lo + init.best_val.size
            # Trapped models get the full cold treatment in the cold pass,
            # which overwrites their picks with its own models and state.
            guard = state.best_val[lo:hi] > GUARD_RATIO * init.best_val
            obs.inc("warm.models_warm", float(np.count_nonzero(~guard)))
            if guard.any():
                obs.inc("warm.guard_cold_refits", float(guard.sum()))
                guarded.extend((j, int(r)) for r in np.flatnonzero(guard))
            lo = hi
    # Guard rows ride after the cold boxes' rows.  Row order cannot move a
    # result, but it sets which rows share a slab, and with it the mlp.*
    # step counts.
    for j, r in guarded:
        cold.setdefault(jobs[j].rows[r].size, []).append((j, r))
    for members in cold.values():
        _fit_rows(jobs, members, picks, cfg, None, None)
    return [_assemble(job, job_picks) for job, job_picks in zip(jobs, picks)]


def _fit_rows(
    jobs: Sequence[_Job],
    members: Sequence[Tuple[int, int]],
    picks: List[list],
    cfg: MlpConfig,
    init_params: Optional[np.ndarray],
    patience: Optional[int],
) -> BatchFitState:
    """One kernel call over the ``(job, row)`` members; record their picks."""
    fitted = fit_equal_length_state(
        np.stack([jobs[j].rows[r] for j, r in members]), cfg, init_params, patience
    )
    for k, (j, r) in enumerate(members):
        picks[j][r] = (fitted, k)
    return fitted[1]


def _assemble(
    job: _Job, picks: Sequence[tuple]
) -> Tuple[List[NeuralNetPredictor], Optional[BatchFitState]]:
    """A box's models and, if its rows share a length, its own state.

    ``picks`` holds each row's ``((models, state), index)`` in the kernel
    call that fit it last.
    """
    models = [fitted[k] for (fitted, _), k in picks]
    if not _equal_length(job.rows):
        return models, None
    return models, BatchFitState(
        params=np.stack([state.params[k] for (_, state), k in picks]),
        best_val=np.array([state.best_val[k] for (_, state), k in picks]),
        epochs=np.array([state.epochs[k] for (_, state), k in picks]),
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
