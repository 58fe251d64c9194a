"""Result containers for ATM runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.timeseries.ecdf import Ecdf
from repro.timeseries.metrics import (
    finite_mean,
    finite_values,
    mean_absolute_percentage_error,
    peak_absolute_percentage_error,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resizing.evaluate import BoxReduction, ResizingAlgorithm
    from repro.trace.model import Resource

__all__ = ["BoxAtmResult", "PredictionAccuracy", "accuracy_for_box"]


@dataclass(frozen=True)
class PredictionAccuracy:
    """Per-box prediction accuracy, the Fig. 9 unit of analysis.

    ``ape`` is the mean absolute percentage error across all series and
    windows of the box; ``peak_ape`` restricts to windows whose *actual*
    usage exceeded the ticket threshold (the paper's "Peak" CDFs).  Either
    may be ``nan`` for degenerate boxes (e.g. no peaks).
    """

    box_id: str
    ape: float
    peak_ape: float
    signature_ratio: float


@dataclass
class BoxAtmResult:
    """Everything an end-to-end ATM run produces for one box."""

    box_id: str
    accuracy: PredictionAccuracy
    reductions: Dict[Tuple[Resource, ResizingAlgorithm], BoxReduction]
    predicted: Dict[Resource, np.ndarray]
    allocations: Dict[Resource, np.ndarray]


def accuracy_for_box(
    box_id: str,
    actual: np.ndarray,
    predicted: np.ndarray,
    peak_thresholds: np.ndarray,
    signature_ratio: float,
) -> PredictionAccuracy:
    """Compute per-box accuracy from actual/predicted demand matrices.

    Parameters
    ----------
    actual, predicted:
        ``(n_series, horizon)`` matrices in demand units.
    peak_thresholds:
        Per-series demand levels marking "peak" windows (``alpha`` times the
        series' current allocated capacity — i.e. usage above the ticket
        threshold).
    """
    if actual.shape != predicted.shape:
        raise ValueError(
            f"actual and predicted shapes differ: {actual.shape} vs {predicted.shape}"
        )
    if peak_thresholds.shape != (actual.shape[0],):
        raise ValueError("need one peak threshold per series")
    apes: List[float] = []
    peak_apes: List[float] = []
    for row in range(actual.shape[0]):
        apes.append(mean_absolute_percentage_error(actual[row], predicted[row]))
        peak_apes.append(
            peak_absolute_percentage_error(
                actual[row], predicted[row], peak_threshold=float(peak_thresholds[row])
            )
        )
    return PredictionAccuracy(
        box_id=box_id,
        ape=finite_mean(apes),
        peak_ape=finite_mean(peak_apes),
        signature_ratio=signature_ratio,
    )


def ape_cdf(accuracies: List[PredictionAccuracy], peak: bool = False) -> Optional[Ecdf]:
    """Build the Fig. 9 CDF across boxes; ``None`` if no finite samples."""
    values = [a.peak_ape if peak else a.ape for a in accuracies]
    finite = finite_values(values)
    if not finite.size:
        return None
    return Ecdf.from_samples(finite)
