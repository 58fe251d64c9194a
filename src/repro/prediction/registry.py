"""Factory for temporal models by name.

The paper stresses that "any temporal prediction model can be directly
plugged into the ATM framework"; this registry is that plug point.  Core
configs reference temporal models by name so experiments can swap the
signature predictor without code changes.

The registry is also the one place that knows which model has a
multi-series trainer: ``neural``, whose fits all go through the fleet
trainer (:func:`repro.prediction.temporal.warm.fit_neural_fleet`).
:func:`fit_temporal_fleet_batch` (the offline pipeline's fit of a chunk
of boxes) is its all-cold case, with the states dropped, and
:func:`fit_temporal_batch` (one box's signature series) its one-request
case.  :func:`fit_temporal_fleet_batch_warm` (the online controller's
chained refits) goes through the trainer's store layer,
:func:`~repro.prediction.temporal.warm.fit_neural_fleet_warm`, and
:func:`fit_temporal_batch_warm` is its one-box case.  Every other model
fits series by series, so callers never branch on which kind of model
they hold.
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
    "fit_temporal_fleet_batch_warm",
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


#: One box's warm-chained fit request, ``(histories, state)``, and its
#: outcome, ``(models, next state)`` or the exception its fit raised.
WarmRequest = Tuple[Sequence[np.ndarray], Optional[object]]
WarmOutcome = Union[Tuple[List[TemporalPredictor], Optional[object]], Exception]


#: The one model with a multi-series trainer (see the module docstring).
_FLEET_TRAINED = "neural"


def _fit_each(
    name: str, histories: Sequence[np.ndarray], period: int
) -> List[TemporalPredictor]:
    """Per-series fits, for models without a multi-series trainer."""
    return [make_temporal_model(name, period=period).fit(h) for h in histories]


def fit_temporal_batch(
    name: str, histories: Sequence[np.ndarray], period: int = 96
) -> List[TemporalPredictor]:
    """Fit one ``name`` model per history, in input order.

    ``neural`` fits all histories as one request of the fleet trainer,
    bit-identical to the per-series path (pinned by the registry contract
    test); any other model fits series by series.  A bad history raises.
    """
    if name != _FLEET_TRAINED:
        return _fit_each(name, histories, period)
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

    The one-box case of :func:`fit_temporal_fleet_batch_warm`; a failed
    fit raises.  Feed ``state`` back as ``warm`` on the next refit to
    chain.  An incompatible ``warm`` (changed signature count, different
    model) is ignored by the fleet trainer, which then fits cold and
    returns a fresh state.  Any other model fits series by series and its
    state is ``None``.
    """
    (outcome,) = fit_temporal_fleet_batch_warm(name, [(histories, warm)], period=period)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit_temporal_fleet_batch_warm(
    name: str, requests: Sequence[WarmRequest], period: int = 96
) -> List[WarmOutcome]:
    """Warm-started fits of many boxes, one ``(histories, warm)`` request each.

    Returns one ``(models, state)`` outcome per request, in order, each
    bit-identical to fitting that request alone.
    ``neural`` fits every box of a history length in shared cross-box
    passes; any other model fits box by box with a ``None`` state.  A
    box whose fit fails gets its exception in place of its outcome, so
    one bad box never costs the others their fits.
    """
    if name == _FLEET_TRAINED:
        return fit_neural_fleet_warm(requests, MlpConfig(period=period))
    _factory(name)
    out: List[WarmOutcome] = []
    for histories, _ in requests:
        try:
            out.append((_fit_each(name, histories, period), None))
        except Exception as exc:
            out.append(exc)
    return out


def fit_temporal_fleet_batch(
    name: str,
    history_groups: Sequence[Sequence[np.ndarray]],
    period: int = 96,
) -> List[Union[List[TemporalPredictor], Exception]]:
    """Fit many boxes' signature histories, one group per box.

    ``history_groups`` holds one sequence of signature series per box;
    the result keeps that grouping, each entry fitted in input order and
    bit-identical to handing the same group to :func:`fit_temporal_batch`
    on its own (pinned by the fused equivalence test suite).  ``neural``
    fits every group as a cold request of the fleet trainer, fusing all
    series of a history length into one cross-box pass; any other model
    fits group by group.  A group that fails gets the exception its own
    fit raised in place of its model list, so one bad box never costs
    the others their fits.
    """
    _factory(name)
    if name == _FLEET_TRAINED:
        outcomes = fit_neural_fleet(
            [(group, None) for group in history_groups], MlpConfig(period=period)
        )
        _count_fused_passes(history_groups, outcomes)
        return [o if isinstance(o, Exception) else o[0] for o in outcomes]
    out: List[Union[List[TemporalPredictor], Exception]] = []
    for group in history_groups:
        try:
            out.append(fit_temporal_batch(name, group, period=period))
        except Exception as exc:
            out.append(exc)
    return out


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
