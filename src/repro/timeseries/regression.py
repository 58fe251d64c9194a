"""Ordinary least squares, variance inflation factors, stepwise elimination.

Section III uses three regression ingredients:

* **OLS** fits express each dependent series as a linear combination of the
  signature series (paper Eq. 1).
* **VIF** (variance inflation factor) flags multicollinearity inside the
  initial signature set: a series whose VIF exceeds 4 is well explained by
  the other signatures.
* **Stepwise regression** then removes such redundant signatures one at a
  time until every remaining signature has VIF <= 4.

All of it is implemented on NumPy's least-squares solver; no statistics
package is required.

Each hot operation runs on a vectorized form:

* All VIFs at once as the diagonal of the inverse correlation matrix of
  the candidate set — the classic Gram identity ``VIF_k = inv(R)[k, k]``,
  mathematically identical to the leave-one-out R^2 definition.
* Stepwise elimination that *downdates* that inverse when a column is
  dropped (Schur complement) instead of refitting ``k`` regressions per
  round — O(k^2) per drop instead of O(T * k^3).
* :func:`fit_ols_multi`, which fits every dependent series of a box in a
  single multi-right-hand-side ``lstsq``.

The vectorized VIF/stepwise paths certify their decisions: whenever the
candidate set is near-singular, a VIF is numerically tied with the
elimination threshold, or two VIFs are tied with each other, they defer to
the reference implementation so the kept/removed sets are always exactly
the reference's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OlsFit",
    "fit_ols",
    "fit_ols_multi",
    "variance_inflation_factors",
    "stepwise_eliminate",
]

#: ``ss_tot`` at or below this marks a column as constant (matches
#: :func:`fit_ols`'s degenerate-target rule, which yields ``R^2 = 1``).
_CONSTANT_SS = 1e-12

#: Largest ``diag(inv(R))`` the Gram path trusts.  Beyond it the candidate
#: set is so collinear that the Gram and lstsq answers may order columns
#: differently, so the code falls back to the reference implementation.
_GRAM_DIAG_GUARD = 1e8

#: Relative margin under which two VIFs (or a VIF and the threshold) are
#: considered numerically tied — the Gram path cannot certify it makes the
#: same choice as lstsq, so it defers to the reference implementation.
_GRAM_TIE_RTOL = 1e-6


@dataclass(frozen=True)
class OlsFit:
    """Result of an ordinary least squares fit ``y ~ intercept + X @ coef``."""

    intercept: float
    coefficients: np.ndarray
    r2: float
    residual_std: float

    def predict(self, regressors: np.ndarray) -> np.ndarray:
        """Evaluate the fitted model on a ``(n_samples, n_features)`` matrix."""
        x = np.asarray(regressors, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.coefficients.size:
            raise ValueError(
                f"model has {self.coefficients.size} features, got {x.shape[1]}"
            )
        return self.intercept + x @ self.coefficients


def _design(regressors: np.ndarray) -> np.ndarray:
    x = np.asarray(regressors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"regressors must be 1-D or 2-D, got shape {x.shape}")
    return x


def fit_ols(target: Sequence[float], regressors: np.ndarray) -> OlsFit:
    """Fit ``target ~ intercept + regressors`` by least squares.

    Parameters
    ----------
    target:
        The dependent series, length ``n_samples``.
    regressors:
        ``(n_samples, n_features)`` matrix (or 1-D for a single regressor).

    Notes
    -----
    Uses :func:`numpy.linalg.lstsq`, which returns the minimum-norm solution
    when the design matrix is rank deficient — fits never fail outright,
    mirroring how a production pipeline must behave on degenerate boxes
    (e.g. constant usage series).
    """
    y = np.asarray(target, dtype=float)
    x = _design(regressors)
    if y.ndim != 1 or y.size != x.shape[0]:
        raise ValueError(
            f"target must be 1-D with length {x.shape[0]}, got shape {y.shape}"
        )
    design = np.column_stack([np.ones(x.shape[0]), x])
    solution, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ solution
    residuals = y - fitted
    ss_res = float((residuals * residuals).sum())
    centered = y - y.mean()
    ss_tot = float((centered * centered).sum())
    r2 = 1.0 if ss_tot <= _CONSTANT_SS else 1.0 - ss_res / ss_tot
    dof = max(1, y.size - design.shape[1])
    return OlsFit(
        intercept=float(solution[0]),
        coefficients=solution[1:].copy(),
        r2=float(np.clip(r2, -np.inf, 1.0)),
        residual_std=float(np.sqrt(ss_res / dof)),
    )


def fit_ols_multi(targets: np.ndarray, regressors: np.ndarray) -> List[OlsFit]:
    """Fit every column of ``targets`` against the same regressors at once.

    Equivalent to ``[fit_ols(targets[:, k], regressors) for k in ...]`` but
    solved as one multi-right-hand-side ``lstsq`` (the design matrix is
    factorized once) with the residual statistics batched as column
    reductions.
    """
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2:
        raise ValueError(f"targets must be 1-D or 2-D, got shape {y.shape}")
    x = _design(regressors)
    if y.shape[0] != x.shape[0]:
        raise ValueError(
            f"targets must have {x.shape[0]} samples per column, got {y.shape[0]}"
        )
    n_targets = y.shape[1]
    if n_targets == 0:
        return []

    design = np.column_stack([np.ones(x.shape[0]), x])
    solution, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ solution
    residuals = y - fitted
    ss_res = (residuals * residuals).sum(axis=0)
    centered = y - y.mean(axis=0)
    ss_tot = (centered * centered).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(ss_tot <= _CONSTANT_SS, 1.0, 1.0 - ss_res / ss_tot)
    r2 = np.minimum(r2, 1.0)
    dof = max(1, y.shape[0] - design.shape[1])
    residual_std = np.sqrt(ss_res / dof)
    return [
        OlsFit(
            intercept=float(solution[0, k]),
            coefficients=solution[1:, k].copy(),
            r2=float(r2[k]),
            residual_std=float(residual_std[k]),
        )
        for k in range(n_targets)
    ]


def _vif_reference(x: np.ndarray) -> np.ndarray:
    """VIFs via the definitional leave-one-out regressions."""
    n_series = x.shape[1]
    vifs = np.empty(n_series)
    for k in range(n_series):
        others = np.delete(x, k, axis=1)
        r2 = np.clip(fit_ols(x[:, k], others).r2, 0.0, 1.0)
        vifs[k] = np.inf if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return vifs


def _vif_gram(x: np.ndarray) -> Optional[np.ndarray]:
    """All VIFs at once from the inverse correlation matrix, or ``None``.

    ``VIF_k = diag(inv(R))_k`` for the correlation matrix ``R`` of the
    non-constant columns; constant columns keep the reference semantics
    (``R^2 = 1`` against any regressors, hence ``inf``).  Returns ``None``
    when ``R`` is too ill-conditioned for the identity to be trusted — the
    caller then uses :func:`_vif_reference`.
    """
    n_series = x.shape[1]
    centered = x - x.mean(axis=0)
    ss = (centered * centered).sum(axis=0)
    constant = ss <= _CONSTANT_SS
    vifs = np.empty(n_series)
    vifs[constant] = np.inf
    active = np.flatnonzero(~constant)
    if active.size == 0:
        return vifs
    if active.size == 1:
        # A lone non-constant column regressed on constants fits nothing.
        vifs[active] = 1.0
        return vifs
    normed = centered[:, active] / np.sqrt(ss[active])
    inv = _trusted_inverse(normed.T @ normed)
    if inv is None:
        return None
    vifs[active] = np.maximum(np.diagonal(inv), 1.0)
    return vifs


def _trusted_inverse(r: np.ndarray) -> Optional[np.ndarray]:
    """Invert a correlation matrix, or ``None`` when the result is suspect."""
    try:
        inv = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        return None
    diag = np.diagonal(inv)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0) or np.any(
        diag > _GRAM_DIAG_GUARD
    ):
        return None
    return inv


def variance_inflation_factors(series_matrix: np.ndarray) -> np.ndarray:
    """Return the VIF of every column of a ``(n_samples, n_series)`` matrix.

    ``VIF_k = 1 / (1 - R_k^2)`` where ``R_k^2`` comes from regressing column
    ``k`` on all the other columns.  A column perfectly explained by the
    others gets ``numpy.inf``; with fewer than two columns every VIF is 1.
    ``series_matrix`` is the ``(n_samples, n_series)`` candidate matrix.
    """
    x = _design(series_matrix)
    if x.shape[1] < 2:
        return np.ones(x.shape[1])
    vifs = _vif_gram(x)
    if vifs is not None:
        return vifs
    return _vif_reference(x)


def _stepwise_reference(
    x: np.ndarray, vif_threshold: float
) -> Tuple[List[int], List[int]]:
    """The definitional eliminate loop: refit all VIFs every round."""
    kept = list(range(x.shape[1]))
    removed: List[int] = []
    while len(kept) > 1:
        sub = x[:, kept]
        vifs = _vif_reference(sub) if sub.shape[1] >= 2 else np.ones(sub.shape[1])
        worst_pos = int(np.argmax(vifs))
        if not (vifs[worst_pos] > vif_threshold):
            break
        removed.append(kept.pop(worst_pos))
    return kept, removed


def _certified_argmax(vifs: np.ndarray, vif_threshold: float) -> Optional[int]:
    """First-max position of ``vifs`` when the Gram path can certify it.

    Returns ``None`` when the decision is numerically ambiguous: the top
    two VIFs tie within :data:`_GRAM_TIE_RTOL`, or the worst VIF sits on
    the elimination threshold.  (``inf`` entries — constant columns — are
    unambiguous: the reference rates them ``inf`` too, and ``np.argmax``
    picks the first in either path.)
    """
    worst_pos = int(np.argmax(vifs))
    worst = float(vifs[worst_pos])
    if abs(worst - vif_threshold) <= _GRAM_TIE_RTOL * max(1.0, vif_threshold):
        return None
    if vifs.size >= 2:
        rest = np.delete(vifs, worst_pos)
        runner_up = float(rest.max())
        if worst - runner_up <= _GRAM_TIE_RTOL * max(1.0, worst):
            return None
    return worst_pos


def _stepwise_gram(
    x: np.ndarray, vif_threshold: float, corr: Optional[np.ndarray]
) -> Optional[Tuple[List[int], List[int]]]:
    """Stepwise elimination on the inverse correlation matrix, or ``None``.

    The inverse is computed once over the non-constant candidate columns and
    *downdated* by a Schur complement whenever a column is dropped, so each
    round costs O(k^2) instead of k full regressions.  Constant columns are
    eliminated first (their VIF is ``inf`` in both paths, and ``argmax``
    picks the first).  Any round the Gram identity cannot certify — see
    :func:`_certified_argmax` and :func:`_trusted_inverse` — aborts to the
    reference implementation, which redoes the elimination from scratch.
    """
    kept = list(range(x.shape[1]))
    removed: List[int] = []
    centered = x - x.mean(axis=0)
    ss = (centered * centered).sum(axis=0)
    non_constant = [c for c in kept if ss[c] > _CONSTANT_SS]

    # Certify the non-constant candidates *before* touching the constants:
    # a perfectly collinear column is rated inf by the reference and could
    # precede a constant in its removal order, so an untrustworthy inverse
    # means the whole elimination belongs to the reference path.
    inv: Optional[np.ndarray] = None
    if len(non_constant) >= 2:
        if corr is not None:
            r = np.asarray(corr, dtype=float)[np.ix_(non_constant, non_constant)]
        else:
            normed = centered[:, non_constant] / np.sqrt(ss[non_constant])
            r = normed.T @ normed
        inv = _trusted_inverse(r)
        if inv is None:
            return None

    # A trusted inverse bounds every non-constant VIF below the Gram guard,
    # far under the reference's inf cutoff — so the infs are exactly the
    # constant columns, and the reference removes them front-to-back.
    while len(kept) > 1:
        constant_pos = next(
            (p for p, c in enumerate(kept) if ss[c] <= _CONSTANT_SS), None
        )
        if constant_pos is None:
            break
        removed.append(kept.pop(constant_pos))

    if len(kept) < 2 or inv is None:
        return kept, removed

    while len(kept) > 1:
        vifs = np.maximum(np.diagonal(inv), 1.0)
        worst_pos = _certified_argmax(vifs, vif_threshold)
        if worst_pos is None:
            return None
        if not (vifs[worst_pos] > vif_threshold):
            break
        removed.append(kept.pop(worst_pos))
        if len(kept) < 2:
            break
        # Downdating: the inverse of R with row/column p removed is
        # E - c c^T / d, with E/c/d the blocks of the current inverse.
        keep_mask = np.arange(inv.shape[0]) != worst_pos
        column = inv[keep_mask, worst_pos]
        pivot = inv[worst_pos, worst_pos]
        inv = inv[np.ix_(keep_mask, keep_mask)] - np.outer(column, column) / pivot
        diag = np.diagonal(inv)
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0) or np.any(
            diag > _GRAM_DIAG_GUARD
        ):
            return None
    return kept, removed


def stepwise_eliminate(
    series_matrix: np.ndarray,
    vif_threshold: float = 4.0,
    corr: Optional[np.ndarray] = None,
) -> Tuple[List[int], List[int]]:
    """Iteratively drop the most collinear column until all VIFs pass.

    This is the paper's "step 2": after clustering produces an initial
    signature set, any member with ``VIF > 4`` is a linear combination of the
    others and can be demoted to a dependent series.

    Parameters
    ----------
    series_matrix:
        ``(n_samples, n_series)`` matrix of candidate signature series.
    vif_threshold:
        Keep removing while some column's VIF exceeds this (paper uses 4).
    corr:
        Optional precomputed Pearson correlation matrix of the columns for
        the vectorized path (see :func:`variance_inflation_factors`).

    Returns
    -------
    (kept, removed):
        Column indices that remain signatures, and those demoted, both in
        terms of the input matrix's column order.  ``removed`` is ordered by
        elimination step (most collinear first).
    """
    x = _design(series_matrix)
    if vif_threshold <= 1.0:
        raise ValueError("vif_threshold must exceed 1.0")
    result = _stepwise_gram(x, vif_threshold, corr)
    if result is not None:
        return result
    return _stepwise_reference(x, vif_threshold)


def fit_dependent_models(
    signature_matrix: np.ndarray,
    dependent_matrix: np.ndarray,
) -> List[OlsFit]:
    """Fit one OLS model per dependent series against the signature matrix.

    Convenience wrapper used by the spatial prediction models: columns of
    ``dependent_matrix`` are regressed on the columns of ``signature_matrix``
    in one multi-right-hand-side solve (see :func:`fit_ols_multi`).
    """
    sig = _design(signature_matrix)
    dep = _design(dependent_matrix)
    if sig.shape[0] != dep.shape[0]:
        raise ValueError("signature and dependent matrices need equal sample counts")
    return fit_ols_multi(dep, sig)
