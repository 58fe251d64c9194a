"""Factory for temporal models by name.

The paper stresses that "any temporal prediction model can be directly
plugged into the ATM framework"; this registry is that plug point.  Core
configs reference temporal models by name so experiments can swap the
signature predictor without code changes.

The registry is also the one place that knows which models ship a
multi-series training kernel.  :func:`fit_temporal_batch` (one box's
signature series) and :func:`fit_temporal_batch_warm` (the same, chained
fit to fit) hand a kernel model's series to one vectorized fit and fit
every other model series by series, so callers never branch on which
kind of model they hold.  :func:`fit_temporal_fleet_batch` and
:func:`fit_temporal_fleet_batch_warm` fit many boxes' series at once: a
kernel model fuses them into cross-box passes, any other model fits them
box by box.  Each one-box function is the one-box case of its fleet
form.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

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
    fit_neural_fleet_warm,
    fit_neural_fused,
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


class _Kernel(NamedTuple):
    """A model's multi-series training kernel; both fits are bit-identical
    to per-series fits of the model.

    ``fleet(groups, period, fleet)`` trains *groups* of histories (one per
    box) in fused cross-box batches and returns one model list per group.
    With ``fleet`` set, a group whose histories fail validation gets its
    exception in place of the list (the caller degrades exactly that
    box); with it cleared, the failure raises as a one-box fit's would.

    ``warm(requests, period)`` does the same for warm-chained refits:
    each request is one box's ``(histories, state)``, the state opaque
    and fit to fit (see :mod:`repro.prediction.temporal.warm`), and each
    outcome the box's models with its next state, or the exception its
    fit raised.
    """

    fleet: Callable[
        [List[List[np.ndarray]], int, bool],
        List[Union[List[TemporalPredictor], Exception]],
    ]
    warm: Callable[[List[WarmRequest], int], List[WarmOutcome]]


_KERNELS: Dict[str, _Kernel] = {
    "neural": _Kernel(
        fleet=lambda groups, period, fleet: fit_neural_fused(
            groups, MlpConfig(period=period), fleet=fleet
        ),
        warm=lambda requests, period: fit_neural_fleet_warm(
            requests, MlpConfig(period=period)
        ),
    ),
}


def _fit_each(
    name: str, histories: Sequence[np.ndarray], period: int
) -> List[TemporalPredictor]:
    """Per-series fits, for models without a multi-series kernel."""
    return [make_temporal_model(name, period=period).fit(h) for h in histories]


def fit_temporal_batch(
    name: str, histories: Sequence[np.ndarray], period: int = 96
) -> List[TemporalPredictor]:
    """Fit one ``name`` model per history, in input order.

    A model with a kernel fits all histories in one vectorized pass,
    bit-identical to the per-series path (pinned by the registry contract
    test); any other model fits series by series.  A bad history raises.
    """
    kernel = _KERNELS.get(name)
    if kernel is None:
        return _fit_each(name, histories, period)
    (models,) = kernel.fleet([list(histories)], period, False)
    return models  # type: ignore[return-value]


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
    model) is ignored by the kernel, which then fits cold and returns a
    fresh state.  A model without a kernel fits series by series and its
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
    A model with a kernel fits every box of a history length in shared
    cross-box passes; any other model fits box by box with a ``None``
    state.  A box whose fit fails gets its exception in place of its
    outcome, so one bad box never costs the others their fits.
    """
    kernel = _KERNELS.get(name)
    if kernel is not None:
        return kernel.warm([(list(h), warm) for h, warm in requests], period)
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
    on its own (pinned by the fused equivalence test suite).  A model
    with a kernel fuses every group into one cross-box pass; any other
    model fits group by group.  A group that fails gets the exception its
    own fit raised in place of its model list, so one bad box never costs
    the others their fits.
    """
    kernel = _KERNELS.get(name)
    if kernel is not None:
        return kernel.fleet([list(group) for group in history_groups], period, True)
    _factory(name)
    out: List[Union[List[TemporalPredictor], Exception]] = []
    for group in history_groups:
        try:
            out.append(fit_temporal_batch(name, group, period=period))
        except Exception as exc:
            out.append(exc)
    return out
