"""Time-series mathematics substrate for the ATM reproduction.

This subpackage implements, from scratch on top of NumPy, every statistical
primitive the paper's prediction and characterization pipelines rely on:

* :mod:`repro.timeseries.dtw` — dynamic time warping distances (Section III-A).
* :mod:`repro.timeseries.correlation` — Pearson correlation and the
  intra/inter correlation decomposition of Section II-B.
* :mod:`repro.timeseries.clustering` — agglomerative hierarchical clustering
  over precomputed dissimilarity matrices.
* :mod:`repro.timeseries.silhouette` — silhouette scores used to pick the
  number of DTW clusters.
* :mod:`repro.timeseries.regression` — ordinary least squares, variance
  inflation factors, and stepwise elimination (Section III, step 2).
* :mod:`repro.timeseries.metrics` — APE/MAPE accuracy metrics.
* :mod:`repro.timeseries.ecdf` — empirical CDFs and box-plot summaries used
  throughout the evaluation figures.
* :mod:`repro.timeseries.smoothing` — series differencing for ARIMA.
"""

from repro.timeseries.correlation import (
    CorrelationDecomposition,
    pairwise_correlation_matrix,
    pearson,
)
from repro.timeseries.clustering import HierarchicalClustering
from repro.timeseries.dtw import dtw_distance_matrix
from repro.timeseries.ecdf import BoxplotSummary, Ecdf
from repro.timeseries.metrics import (
    absolute_percentage_errors,
    mean_absolute_percentage_error,
    peak_absolute_percentage_error,
)
from repro.timeseries.regression import (
    OlsFit,
    fit_ols,
    stepwise_eliminate,
    variance_inflation_factors,
)
from repro.timeseries.silhouette import silhouette_values

__all__ = [
    "BoxplotSummary",
    "CorrelationDecomposition",
    "Ecdf",
    "HierarchicalClustering",
    "OlsFit",
    "absolute_percentage_errors",
    "dtw_distance_matrix",
    "fit_ols",
    "mean_absolute_percentage_error",
    "pairwise_correlation_matrix",
    "peak_absolute_percentage_error",
    "pearson",
    "silhouette_values",
    "stepwise_eliminate",
    "variance_inflation_factors",
]
