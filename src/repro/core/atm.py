"""The per-box ATM controller: train → predict → resize.

One :class:`AtmController` manages one physical box.  Its lifecycle follows
the paper's deployment story:

1. :meth:`fit` on the training window (5 days of demand history).  The
   inter-resource signature search runs over the stacked CPU+RAM demand
   matrix, temporal models are fitted to the signature series only.
2. :meth:`predict` the full next resizing window (1 day, 96 windows) for
   every series.
3. :meth:`resize` per resource: build the MCKP from the predicted demands
   and solve it greedily, yielding the capacity allocation the actuator
   should enforce for the next day.  The sizing step itself is
   :func:`repro.resizing.evaluate.size_box_resource`, shared with the
   offline evaluation, the online controller and the testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.core import faults
from repro.core.config import AtmConfig
from repro.core.degrade import RUNG_PRIMARY, RUNG_SEASONAL, sanitize_demands
from repro.core.results import PredictionAccuracy
from repro.prediction.combined import BoxPrediction, SpatialTemporalPredictor
from repro.resizing.evaluate import BoxReduction, ResizingAlgorithm, size_box_resource
from repro.trace.model import BoxTrace, Resource

__all__ = ["AtmController", "BoxAtmResult"]


@dataclass
class BoxAtmResult:
    """Everything an end-to-end ATM run produces for one box."""

    box_id: str
    accuracy: PredictionAccuracy
    reductions: Dict[Tuple[Resource, ResizingAlgorithm], BoxReduction]
    predicted: Dict[Resource, np.ndarray]
    allocations: Dict[Resource, np.ndarray]


class AtmController:
    """ATM for a single box.

    ``rung`` names the degradation-ladder rung this controller serves
    (see :mod:`repro.core.degrade`): the default ``"primary"`` runs the
    configured model on the raw training slice; ``"seasonal_mean"`` is
    the fallback instantiation the fleet pipeline builds after a primary
    failure — it sanitizes non-finite training samples (surviving
    NaN-poisoned slices the primary correctly rejects) and answers to the
    ``fallback_error`` fault kind instead of ``fit_error``.
    """

    def __init__(
        self,
        box: BoxTrace,
        config: Optional[AtmConfig] = None,
        rung: str = RUNG_PRIMARY,
    ) -> None:
        self.box = box
        self.config = config or AtmConfig()
        self.rung = rung
        self._predictor: Optional[SpatialTemporalPredictor] = None
        self._train_demands: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ train
    def _training_demands(self, train_windows: Optional[int] = None) -> np.ndarray:
        """Materialize the training slice (fault hooks included).

        This is the stage graph's input boundary: every fault that can
        corrupt or abort training fires *here*, before any artifact-store
        lookup, so poisoned slices change the artifact's data fingerprint
        (and fit errors raise) rather than tainting stored results.
        """
        windows = train_windows or self.config.training_windows
        windows = min(windows, self.box.n_windows)
        demands = self.box.demand_matrix()[:, :windows]  # stacked CPU+RAM
        demands = faults.poison_training(self.box.box_id, demands)
        if self.rung == RUNG_PRIMARY:
            faults.inject_fault("fit_error", self.box.box_id)
        else:
            faults.inject_fault("fallback_error", self.box.box_id)
            demands = sanitize_demands(demands)
        self._train_demands = demands
        return demands

    def fit(self, train_windows: Optional[int] = None) -> "AtmController":
        """Fit the spatial-temporal predictor on the first training windows."""
        demands = self._training_demands(train_windows)
        with obs.span("atm.fit"):
            self._predictor = SpatialTemporalPredictor(self.config.prediction).fit(
                demands
            )
        return self

    @property
    def is_fitted(self) -> bool:
        return self._predictor is not None

    @property
    def signature_ratio(self) -> float:
        if self._predictor is None:
            raise RuntimeError("controller has not been fitted")
        return self._predictor.spatial_model.signature_ratio

    # ---------------------------------------------------------------- predict
    def predict(self, horizon: Optional[int] = None) -> BoxPrediction:
        """Forecast every demand series for the next resizing window."""
        if self._predictor is None:
            raise RuntimeError("controller has not been fitted")
        return self._predictor.predict(horizon or self.config.horizon_windows)

    def split_prediction(self, prediction: BoxPrediction) -> Dict[Resource, np.ndarray]:
        """Split a stacked (2M, H) prediction into per-resource matrices."""
        m = self.box.n_vms
        return {
            Resource.CPU: prediction.predictions[:m],
            Resource.RAM: prediction.predictions[m:],
        }

    # ----------------------------------------------------------------- resize
    def resize(
        self,
        predicted: Dict[Resource, np.ndarray],
        lower_bounds: Optional[Dict[Resource, np.ndarray]] = None,
    ) -> Dict[Resource, np.ndarray]:
        """Compute next-window capacity allocations from predicted demands.

        Returns per-resource allocation vectors; falls back to the current
        allocation when the greedy cannot satisfy the bounds.
        """
        allocations: Dict[Resource, np.ndarray] = {}
        for resource, demands in predicted.items():
            bounds = None if lower_bounds is None else lower_bounds.get(resource)
            if bounds is None:
                bounds = self._default_lower_bounds(resource)
            [(_, allocations[resource])] = size_box_resource(
                self.box.box_id,
                resource,
                self.box.allocations(resource),
                self.box.capacity(resource),
                self.config.policy,
                (ResizingAlgorithm.ATM,),
                eval_demands=demands,
                epsilon_pct=self.config.epsilon_pct,
                lower_bounds=bounds,
            )
        return allocations

    def _default_lower_bounds(self, resource: Resource) -> np.ndarray:
        """Peak demand of the last training day — "peak usage before resizing"."""
        if self._train_demands is None:
            raise RuntimeError("controller has not been fitted")
        m = self.box.n_vms
        rows = slice(0, m) if resource is Resource.CPU else slice(m, 2 * m)
        period = self.box.windows_per_day
        tail = self._train_demands[rows, -period:]
        return tail.max(axis=1)

    # ------------------------------------------------------------ end to end
    def run(self) -> BoxAtmResult:
        """Full post-hoc evaluation on this box's trace.

        Trains on the configured training windows, predicts the following
        resizing window, evaluates prediction accuracy against the actual
        demands, and compares sizing policies with the predicted demands as
        sizing input (the Fig. 9/10 pipeline for a single box).

        The body is the stage graph of :mod:`repro.core.stages` —
        forecast → resize → evaluate — which consults the artifact store
        before recomputing a stage (bit-identical to the legacy inline
        pipeline when no persistent store is configured).
        """
        cfg = self.config
        if self.box.n_windows < cfg.training_windows + cfg.horizon_windows:
            raise ValueError(
                f"box {self.box.box_id} has {self.box.n_windows} windows; "
                f"need {cfg.training_windows + cfg.horizon_windows} for "
                f"train + horizon"
            )
        from repro.core import stages  # local: stages imports this module

        return stages.run_box_stages(self)
