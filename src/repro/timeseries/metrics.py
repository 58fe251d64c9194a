"""Prediction accuracy metrics used by the paper's evaluation.

The paper's headline metric is the absolute percentage error

    APE = |actual - fitted| / actual

averaged over all ticketing windows (Figs. 6, 7, 9) and, separately, over
*peak* windows only — those whose actual usage exceeds the ticket threshold
(Fig. 9's "Peak" CDFs).  Windows with zero (or near-zero) actual value are
excluded from APE, the standard convention that keeps the metric finite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "absolute_percentage_errors",
    "finite_mean",
    "finite_std",
    "finite_values",
    "mean_absolute_percentage_error",
    "peak_absolute_percentage_error",
]

_EPS = 1e-9


def finite_values(values: Sequence[float]) -> np.ndarray:
    """Return the finite entries of ``values`` as a float array.

    Degenerate boxes legitimately produce ``nan`` metrics (no peaks, no
    tickets, all-zero demand); every fleet-level aggregate drops them the
    same way through this helper.
    """
    arr = np.asarray(list(values), dtype=float)
    return arr[np.isfinite(arr)]


def finite_mean(values: Sequence[float]) -> float:
    """Mean over the finite entries; ``nan`` when none are finite."""
    finite = finite_values(values)
    return float(finite.mean()) if finite.size else float("nan")


def finite_std(values: Sequence[float]) -> float:
    """Population std over the finite entries; ``nan`` when none are finite."""
    finite = finite_values(values)
    return float(finite.std()) if finite.size else float("nan")


def _pair(actual: Sequence[float], predicted: Sequence[float]):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError(
            f"actual and predicted must be equal-length 1-D arrays, got {a.shape} and {p.shape}"
        )
    if a.size == 0:
        raise ValueError("series must be non-empty")
    return a, p


def absolute_percentage_errors(
    actual: Sequence[float], predicted: Sequence[float]
) -> np.ndarray:
    """Return the per-sample APE, with near-zero actual samples dropped."""
    a, p = _pair(actual, predicted)
    mask = np.abs(a) > _EPS
    if not mask.any():
        return np.array([])
    return np.abs(a[mask] - p[mask]) / np.abs(a[mask])


def mean_absolute_percentage_error(
    actual: Sequence[float], predicted: Sequence[float]
) -> float:
    """Return mean APE in percent; ``nan`` when every actual sample is ~zero."""
    errors = absolute_percentage_errors(actual, predicted)
    if errors.size == 0:
        return float("nan")
    return float(errors.mean()) * 100.0


def peak_absolute_percentage_error(
    actual: Sequence[float],
    predicted: Sequence[float],
    peak_threshold: float,
) -> float:
    """Return mean APE restricted to windows where ``actual > peak_threshold``.

    Fig. 9 reports this with the 60% usage threshold: accuracy on exactly the
    windows that matter for ticketing.  Returns ``nan`` when the series never
    peaks.
    """
    a, p = _pair(actual, predicted)
    mask = a > peak_threshold
    if not mask.any():
        return float("nan")
    return mean_absolute_percentage_error(a[mask], p[mask])
