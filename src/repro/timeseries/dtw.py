"""Dynamic time warping (DTW) distances.

Section III-A of the paper clusters usage series with DTW: the dissimilarity
between two series is the cumulative squared distance along the optimal
warping path through the pairwise distance matrix (paper Eq. 2):

    lambda(i, j) = d(p_i, q_j)
                   + min(lambda(i-1, j-1), lambda(i-1, j), lambda(i, j-1))

with ``d(p_i, q_j) = (p_i - q_j)^2``.

The dynamic program is evaluated along anti-diagonals so each wavefront is a
single vectorized NumPy step — the classic dependency on ``lambda(i, j-1)``
within a row disappears because all three predecessors of an anti-diagonal
cell live on the two previous anti-diagonals.  This keeps fleet-scale
clustering (hundreds of boxes x hundreds of pairwise DTWs) tractable in
pure Python.

An optional Sakoe-Chiba band constraint bounds warping, and
:func:`dtw_distance_matrix` computes the pairwise matrix the clustering step
consumes, for all pairs of a box's equal-length series at once.  The
two-series cost matrix and distance are kept as the batch's oracle in
``tests/timeseries/spatial_oracle.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["dtw_distance_matrix"]

_INF = np.inf


def _as_1d(series: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _dtw_batch(p: np.ndarray, q: np.ndarray, window: Optional[int]) -> np.ndarray:
    """DTW distances for aligned batches of equal-length series.

    ``p`` and ``q`` are ``(n_pairs, n)`` arrays; pair ``k`` is
    ``(p[k], q[k])``.  The anti-diagonal dynamic program runs once with the
    pair axis leading, so the whole batch costs one DP's worth of Python
    overhead.  Returns the ``(n_pairs,)`` distances.

    The problem is transposed so the pair axis is innermost: every
    per-diagonal operand becomes a contiguous ``(width, n_pairs)`` block
    and every temporary a preallocated ``out=`` buffer.  The result is
    bit-identical to the fancy-indexed reference wavefront (fresh
    temporaries per diagonal) that ``tests/timeseries/spatial_oracle.py``
    keeps as the oracle.
    """
    n_pairs, n = p.shape
    half = window if window is not None else n  # band half-width
    # Pair axis last: a diagonal's rows lo..hi slice contiguous memory.
    # qT_rev[r] == q[:, n-1-r], so the descending gather q[:, k-rows]
    # becomes the ascending contiguous slice qT_rev[n-1-k+lo : n-k+hi].
    p_t = np.ascontiguousarray(p.T)
    q_t_rev = np.ascontiguousarray(q[:, ::-1].T)
    prev = np.full((n + 2, n_pairs), _INF)
    prev2 = np.full((n + 2, n_pairs), _INF)
    cur = np.full((n + 2, n_pairs), _INF)
    local = np.empty((n, n_pairs))
    best = np.empty((n, n_pairs))
    for k in range(2 * n - 1):
        # Active rows on anti-diagonal k: inside the matrix and the band
        # (|2i - k| <= half).
        lo = max(0, k - n + 1, (k - half + 1) // 2)
        hi = min(n - 1, k, (k + half) // 2)
        if lo > hi:
            break  # pragma: no cover - band always reaches the corner
        width = hi - lo + 1
        d = local[:width]
        np.subtract(p_t[lo : hi + 1], q_t_rev[n - 1 - k + lo : n - k + hi], out=d)
        np.multiply(d, d, out=d)
        if k == 0:
            cur[1] = d[0]
        else:
            b = best[:width]
            np.minimum(prev[lo + 1 : hi + 2], prev[lo : hi + 1], out=b)
            np.minimum(b, prev2[lo : hi + 1], out=b)
            np.add(d, b, out=cur[lo + 1 : hi + 2])
        # Sentinels just outside the active slice keep stale buffer cells
        # from leaking into later diagonals.
        cur[lo] = _INF
        if hi + 2 <= n + 1:
            cur[hi + 2] = _INF
        prev2, prev, cur = prev, cur, prev2
    return prev[n].copy()


def dtw_distance_matrix(
    series: Sequence[Sequence[float]],
    window: Optional[int] = None,
    zscore: bool = False,
) -> np.ndarray:
    """Return the symmetric pairwise DTW distance matrix of equal-length series.

    Every pair goes through one batched anti-diagonal dynamic program
    (:func:`_dtw_batch`).  The series of one box always share a length, so
    unequal lengths are rejected rather than computed pair by pair.

    Parameters
    ----------
    series:
        A sequence of one-dimensional series of one common length.
    window:
        Optional non-negative Sakoe-Chiba band half-width applied to every
        pair.
    zscore:
        Standardize each series (zero mean, unit variance) before comparing.
        Constant series are mapped to all-zeros.  This makes the clustering
        scale-free, which matters because co-located VMs have heterogeneous
        capacities.
    """
    if window is not None and window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    arrays = [_as_1d(s, f"series[{k}]") for k, s in enumerate(series)]
    lengths = sorted({arr.size for arr in arrays})
    if len(lengths) > 1:
        raise ValueError(f"series must share one length, got lengths {lengths}")
    if zscore:
        standardized = []
        for arr in arrays:
            std = arr.std()
            if std <= 1e-12:
                standardized.append(np.zeros_like(arr))
            else:
                standardized.append((arr - arr.mean()) / std)
        arrays = standardized
    n = len(arrays)
    dist = np.zeros((n, n), dtype=float)
    if n > 1:
        stack = np.vstack(arrays)
        a_idx, b_idx = np.triu_indices(n, k=1)
        values = _dtw_batch(stack[a_idx], stack[b_idx], window)
        dist[a_idx, b_idx] = values
        dist[b_idx, a_idx] = values
    return dist
