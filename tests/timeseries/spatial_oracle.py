"""Definitional spatial-search kernels, kept as the vectorized ones' oracles.

``repro.timeseries`` computes DTW distances with a transposed, buffered
anti-diagonal wavefront and silhouettes with one item-to-cluster matmul.
This module holds the straightforward versions those designs replaced,
copied verbatim, so tests (and ``benchmarks/bench_spatial_vector.py``) can
check the production kernels against them:

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

from repro.timeseries.dtw import dtw_matrix

__all__ = ["dtw_path", "_dtw_batch_reference", "_silhouette_values_reference"]

_INF = np.inf


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
