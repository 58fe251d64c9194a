"""Factory for temporal models by name.

The paper stresses that "any temporal prediction model can be directly
plugged into the ATM framework"; this registry is that plug point.  Core
configs reference temporal models by name so experiments can swap the
signature predictor without code changes.

The registry is also the one place that knows which model has a
multi-series trainer: ``neural``, whose fits all go through the fleet
trainer (:mod:`repro.prediction.temporal.warm`).
:func:`fit_temporal_fleet_batch` is the one fleet fitter, the fit phase
of both fleet drivers (:func:`repro.core.stages.fit_pending`): without
``states`` (the offline chunk) every box fits cold through
:func:`~repro.prediction.temporal.warm.fit_neural_fleet`; with them (the
online controller's chained refits) through the trainer's store layer,
:func:`~repro.prediction.temporal.warm.fit_neural_fleet_warm`.
:func:`fit_temporal_batch` (one box's signature series, cold) and
:func:`fit_temporal_batch_warm` (one box's chained fit) are the one-box
forms.  Every other model fits series by series, so callers never
branch on which kind of model they hold.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.prediction.base import TemporalPredictor
from repro.prediction.temporal import (
    ArimaPredictor,
    AutoRegressivePredictor,
    HoltWintersPredictor,
    LastValuePredictor,
    MlpConfig,
    MovingAveragePredictor,
    NeuralNetPredictor,
    SeasonalMeanPredictor,
    SeasonalNaivePredictor,
    batched,
    fit_neural_fleet,
    fit_neural_fleet_warm,
)

__all__ = [
    "available_temporal_models",
    "fit_temporal_batch",
    "fit_temporal_batch_warm",
    "fit_temporal_fleet_batch",
    "make_temporal_model",
    "temporal_model_version",
]

_FACTORIES: Dict[str, Callable[[int], TemporalPredictor]] = {
    "last_value": lambda period: LastValuePredictor(),
    "moving_average": lambda period: MovingAveragePredictor(window=max(2, period // 12)),
    "seasonal_naive": lambda period: SeasonalNaivePredictor(period=period),
    "seasonal_mean": lambda period: SeasonalMeanPredictor(period=period),
    "ar": lambda period: AutoRegressivePredictor(period=period),
    "arima": lambda period: ArimaPredictor(),
    "holt_winters": lambda period: HoltWintersPredictor(period=period),
    "neural": lambda period: NeuralNetPredictor(MlpConfig(period=period)),
}


def available_temporal_models() -> Tuple[str, ...]:
    """Names accepted by :func:`make_temporal_model`."""
    return tuple(sorted(_FACTORIES))


def make_temporal_model(name: str, period: int = 96) -> TemporalPredictor:
    """Instantiate a fresh temporal model by registry name.

    Parameters
    ----------
    name:
        One of :func:`available_temporal_models`.
    period:
        Seasonal period in windows, forwarded to seasonal models.
    """
    return _factory(name)(period)


def _factory(name: str) -> Callable[[int], TemporalPredictor]:
    """The registry entry of ``name``; an unknown name raises."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown temporal model {name!r}; available: {available_temporal_models()}"
        ) from None


# Implementation version per temporal model, folded into forecast artifact
# keys by the staged pipeline (repro.core.stages).  Bump a model's entry
# whenever its numerics change: stored forecasts computed with the old
# implementation then stop matching and are recomputed instead of served.
_VERSIONS: Dict[str, int] = {}


def temporal_model_version(name: str) -> int:
    """Artifact-key version of a temporal model's implementation (default 1)."""
    _factory(name)
    return _VERSIONS.get(name, 1)


#: One box's fit outcome: ``(models, state)``, or the exception its fit raised.
FitOutcome = Union[Tuple[List[TemporalPredictor], Optional[object]], Exception]


#: The one model with a multi-series trainer (see the module docstring).
_FLEET_TRAINED = "neural"


def fit_temporal_batch(
    name: str, histories: Sequence[np.ndarray], period: int = 96
) -> List[TemporalPredictor]:
    """Fit one ``name`` model per history, in input order.

    ``neural`` fits all histories as one request of the fleet trainer,
    bit-identical to the per-series path (pinned by the registry contract
    test); any other model fits series by series.  A bad history raises.
    """
    if name != _FLEET_TRAINED:
        return [make_temporal_model(name, period=period).fit(h) for h in histories]
    (outcome,) = fit_neural_fleet([(histories, None)], MlpConfig(period=period))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[0]


def fit_temporal_batch_warm(
    name: str,
    histories: Sequence[np.ndarray],
    period: int = 96,
    warm: Optional[object] = None,
) -> Tuple[List[TemporalPredictor], Optional[object]]:
    """Warm-started fit: resume from ``warm``, return ``(models, state)``.

    The one-box chained case of :func:`fit_temporal_fleet_batch`; a
    failed fit raises.  Feed ``state`` back as ``warm`` on the next refit
    to chain.  An incompatible ``warm`` (changed signature count,
    different model) is ignored by the fleet trainer, which then fits
    cold and returns a fresh state.  Any other model fits series by
    series and its state is ``None``.
    """
    (outcome,) = fit_temporal_fleet_batch(name, [histories], period, states=[warm])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit_temporal_fleet_batch(
    name: str,
    history_groups: Sequence[Sequence[np.ndarray]],
    period: int = 96,
    states: Optional[Sequence[Optional[object]]] = None,
) -> List[FitOutcome]:
    """Fit many boxes' signature histories, one group per box.

    ``history_groups`` holds one sequence of signature series per box.
    Returns one ``(models, state)`` outcome per group, in order, each
    fitted in input order and bit-identical to fitting that group alone
    (pinned by the fused equivalence test suite).  A group that fails
    gets the exception its own fit raised in place of its outcome, so
    one bad box never costs the others their fits.

    ``states`` chains the fits: one initializer per group, the state its
    previous fit returned (``None``: cold).  ``neural`` then fits through
    the trainer's store layer
    (:func:`~repro.prediction.temporal.warm.fit_neural_fleet_warm`), and
    each outcome's state continues the box's chain.  Without ``states``
    every group fits cold through
    :func:`~repro.prediction.temporal.warm.fit_neural_fleet`, counted as
    ``fused.*`` and persisted nowhere; no chain continues from such a
    fit, so its state is ``None``.  Either way ``neural`` fuses the rows
    of a history length into shared cross-box passes; any other model
    fits group by group through :func:`fit_temporal_batch` with a
    ``None`` state.
    """
    _factory(name)
    if name != _FLEET_TRAINED:
        out: List[FitOutcome] = []
        for group in history_groups:
            try:
                out.append((fit_temporal_batch(name, group, period=period), None))
            except Exception as exc:
                out.append(exc)
        return out
    config = MlpConfig(period=period)
    if states is not None:
        return fit_neural_fleet_warm(list(zip(history_groups, states)), config)
    outcomes = fit_neural_fleet([(group, None) for group in history_groups], config)
    _count_fused_passes(history_groups, outcomes)
    return [o if isinstance(o, Exception) else (o[0], None) for o in outcomes]


def _count_fused_passes(
    history_groups: Sequence[Sequence[np.ndarray]], outcomes: Sequence[object]
) -> None:
    """``fused.*``: the fleet fit's cold passes, one per history length."""
    widths = Counter(
        np.size(history)
        for group, outcome in zip(history_groups, outcomes)
        if not isinstance(outcome, Exception)
        for history in group
    )
    for width in widths.values():
        obs.inc("fused.groups")
        obs.gauge_max(
            "fused.models_per_pass", float(min(width, batched.FUSED_SLAB_MODELS))
        )
