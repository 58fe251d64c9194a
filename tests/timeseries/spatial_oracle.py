"""Definitional spatial-search kernels, kept as the vectorized ones' oracles.

``repro.timeseries`` computes DTW distances with a transposed, buffered
anti-diagonal wavefront and silhouettes with one item-to-cluster matmul.
This module holds the straightforward versions those designs replaced,
copied verbatim, so tests (and ``benchmarks/bench_spatial_vector.py``) can
check the production kernels against them:

* :func:`dtw_matrix` / :func:`dtw_distance` — the two-series cumulative
  cost matrix and distance (paper Eq. 2), one pair at a time;
* :func:`dtw_distance_matrix_pairwise` — the per-pair loop that
  :func:`repro.timeseries.dtw.dtw_distance_matrix` batches (it also takes
  series of unequal lengths, which production never passes);
* :func:`_dtw_batch_reference` — the fancy-indexed wavefront that
  :func:`repro.timeseries.dtw._dtw_batch` must match bit for bit;
* :func:`_silhouette_values_reference` — the per-item silhouette loop;
* :func:`dtw_path` — the optimal warping path, backtracked through the
  cumulative-cost matrix (its cost must equal the DTW distance).

Not collected as a test module (no ``test_`` prefix).  Importable from the
repository root as ``tests.timeseries.spatial_oracle``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.timeseries.dtw import _as_1d

__all__ = [
    "dtw_distance",
    "dtw_distance_matrix_pairwise",
    "dtw_matrix",
    "dtw_path",
    "_dtw_batch_reference",
    "_silhouette_values_reference",
]

_INF = np.inf


def dtw_matrix(
    p: Sequence[float],
    q: Sequence[float],
    window: Optional[int] = None,
) -> np.ndarray:
    """Return the full cumulative-cost matrix ``lambda`` for two series.

    Parameters
    ----------
    p, q:
        The two input series.
    window:
        Optional Sakoe-Chiba band half-width. When given, cells with
        ``|i - j| > window`` are excluded from the warping path (the band is
        widened automatically so a path exists for unequal lengths).
        ``None`` means unconstrained.

    Returns
    -------
    numpy.ndarray
        An ``(n, m)`` matrix whose ``[i, j]`` entry is the minimal cumulative
        squared distance of aligning ``p[:i+1]`` with ``q[:j+1]``; cells
        outside the band hold ``inf``.
    """
    pa = _as_1d(p, "p")
    qa = _as_1d(q, "q")
    n, m = pa.size, qa.size
    if window is not None:
        if window < 0:
            raise ValueError("window must be non-negative")
        window = max(window, abs(n - m))

    local = (pa[:, None] - qa[None, :]) ** 2
    if window is not None:
        i_idx = np.arange(n)[:, None]
        j_idx = np.arange(m)[None, :]
        local = np.where(np.abs(i_idx - j_idx) <= window, local, _INF)

    cost = np.full((n, m), _INF, dtype=float)
    # prev / prev2 hold the two previous anti-diagonals, indexed by row i.
    prev = np.full(n, _INF)
    prev2 = np.full(n, _INF)
    for k in range(n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(n - 1, k)
        rows = np.arange(lo, hi + 1)
        cols = k - rows
        d = local[rows, cols]
        cur = np.full(n, _INF)
        if k == 0:
            cur[0] = d[0]
        else:
            # Predecessors: (i, j-1) -> prev[i]; (i-1, j) -> prev[i-1];
            # (i-1, j-1) -> prev2[i-1].  Invalid neighbours are inf.
            from_left = prev[rows]
            from_up = np.where(rows >= 1, prev[rows - 1], _INF)
            from_diag = np.where(rows >= 1, prev2[rows - 1], _INF)
            best = np.minimum(np.minimum(from_left, from_up), from_diag)
            # The (0, 0) origin has no predecessor; it was seeded at k == 0.
            values = d + best
            if lo == 0 and k == 0:  # pragma: no cover - handled above
                values[0] = d[0]
            cur[rows] = values
        cost[rows, cols] = cur[rows]
        prev2, prev = prev, cur
    return cost


def dtw_distance(
    p: Sequence[float],
    q: Sequence[float],
    window: Optional[int] = None,
    normalize: bool = False,
) -> float:
    """Return the DTW dissimilarity ``lambda(n, m)`` between two series.

    Parameters
    ----------
    p, q:
        Input series.
    window:
        Optional Sakoe-Chiba band half-width (see :func:`dtw_matrix`).
    normalize:
        When true, divide the cumulative cost by ``n + m`` so distances of
        series with different lengths are comparable.
    """
    cost = dtw_matrix(p, q, window=window)
    value = float(cost[-1, -1])
    if normalize:
        value /= cost.shape[0] + cost.shape[1]
    return value


def dtw_distance_matrix_pairwise(
    series: Sequence[Sequence[float]],
    window: Optional[int] = None,
    normalize: bool = False,
) -> np.ndarray:
    """Symmetric pairwise DTW matrix, one :func:`dtw_distance` per pair.

    ``series`` may have unequal lengths; ``normalize`` divides each
    distance by the pair's summed lengths.
    """
    arrays = [_as_1d(s, f"series[{k}]") for k, s in enumerate(series)]
    n = len(arrays)
    dist = np.zeros((n, n), dtype=float)
    for a in range(n):
        for b in range(a + 1, n):
            d = dtw_distance(arrays[a], arrays[b], window=window, normalize=normalize)
            dist[a, b] = d
            dist[b, a] = d
    return dist



def dtw_path(
    p: Sequence[float],
    q: Sequence[float],
    window: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Return the optimal warping path as a list of ``(i, j)`` index pairs.

    The path starts at ``(0, 0)``, ends at ``(n-1, m-1)`` and is monotone in
    both coordinates (each step moves by ``(1, 1)``, ``(1, 0)`` or ``(0, 1)``).
    """
    cost = dtw_matrix(p, q, window=window)
    i, j = cost.shape[0] - 1, cost.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            candidates = (
                (cost[i - 1, j - 1], i - 1, j - 1),
                (cost[i - 1, j], i - 1, j),
                (cost[i, j - 1], i, j - 1),
            )
            _, i, j = min(candidates, key=lambda c: c[0])
        path.append((i, j))
    path.reverse()
    return path


def _dtw_batch_reference(p: np.ndarray, q: np.ndarray, window: Optional[int]) -> np.ndarray:
    """The reference wavefront: the oracle :func:`_dtw_batch` must match."""
    n_pairs, n = p.shape
    half = window if window is not None else n  # band half-width
    # Padded wavefront buffers, indexed by row i + 1; column 0 is a sentinel.
    prev = np.full((n_pairs, n + 2), _INF)
    prev2 = np.full((n_pairs, n + 2), _INF)
    cur = np.full((n_pairs, n + 2), _INF)
    for k in range(2 * n - 1):
        # Active rows on anti-diagonal k: inside the matrix and the band
        # (|2i - k| <= half).
        lo = max(0, k - n + 1, (k - half + 1) // 2)
        hi = min(n - 1, k, (k + half) // 2)
        if lo > hi:
            break  # pragma: no cover - band always reaches the corner
        rows = np.arange(lo, hi + 1)
        d = (p[:, rows] - q[:, k - rows]) ** 2
        sl = slice(lo + 1, hi + 2)
        sl_prev = slice(lo, hi + 1)
        if k == 0:
            cur[:, 1] = d[:, 0]
        else:
            best = np.minimum(prev[:, sl], prev[:, sl_prev])
            np.minimum(best, prev2[:, sl_prev], out=best)
            cur[:, sl] = d + best
        # Sentinels just outside the active slice keep stale buffer cells
        # from leaking into later diagonals.
        cur[:, lo] = _INF
        if hi + 2 <= n + 1:
            cur[:, hi + 2] = _INF
        prev2, prev, cur = prev, cur, prev2
    return prev[:, n].copy()


def _silhouette_values_reference(d: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Per-item silhouettes via the definitional per-item loop."""
    n = d.shape[0]
    unique = np.unique(lab)
    if unique.size < 2:
        # A single cluster has no "nearest other cluster"; silhouettes are 0.
        return np.zeros(n)

    values = np.zeros(n)
    members = {c: np.flatnonzero(lab == c) for c in unique}
    for i in range(n):
        own = members[lab[i]]
        if own.size <= 1:
            values[i] = 0.0
            continue
        a = d[i, own[own != i]].mean()
        b = min(d[i, members[c]].mean() for c in unique if c != lab[i])
        denom = max(a, b)
        values[i] = 0.0 if denom <= 0 else (b - a) / denom
    return values
