"""Silhouette scores for choosing the number of clusters (paper Eq. 3).

For series ``i`` the silhouette value is

    s(i) = (b(i) - a(i)) / max(a(i), b(i))

where ``a(i)`` is the mean dissimilarity of ``i`` to the other members of its
own cluster and ``b(i)`` is the lowest mean dissimilarity of ``i`` to the
members of any other cluster.  The paper averages ``s(i)`` over all series and
picks the cluster count with the maximal average.

Singleton clusters get ``s(i) = 0`` following Rousseeuw's convention (the
value is undefined; zero is neutral).

Silhouettes are computed by forming a cluster indicator matrix and
obtaining every item-to-cluster distance sum as one
``distances @ indicator`` matmul; the definitional per-item loop is kept
as the tests' oracle in ``tests/timeseries/spatial_oracle.py``.  For the
silhouette sweep over all dendrogram cuts, :func:`mean_silhouettes_for_cuts`
does the ``(n, n)`` matmul once against the finest cut and aggregates
coarser cuts from it — one small matmul per cut instead of O(n^2) Python
iterations per cut.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "silhouette_values",
    "mean_silhouettes_for_cuts",
    "best_silhouette_cut",
]


def _validate(distances: np.ndarray, labels: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    d = np.asarray(distances, dtype=float)
    lab = np.asarray(labels, dtype=int)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if lab.shape != (d.shape[0],):
        raise ValueError("labels must have one entry per item")
    return d, lab


def _silhouette_from_sums(
    sums: np.ndarray, sizes: np.ndarray, own: np.ndarray, self_distance: np.ndarray
) -> np.ndarray:
    """Per-item silhouettes from precomputed item-to-cluster distance sums.

    Parameters
    ----------
    sums:
        ``(n, k)`` matrix: total distance from item ``i`` to all members of
        cluster ``c`` (including ``i`` itself for its own cluster).
    sizes:
        ``(k,)`` cluster sizes.
    own:
        ``(n,)`` cluster index of each item (column into ``sums``).
    self_distance:
        ``(n,)`` diagonal of the distance matrix, subtracted from the own
        cluster's sum so ``a(i)`` averages over the *other* members only.
    """
    n, k = sums.shape
    if k < 2:
        return np.zeros(n)
    rows = np.arange(n)
    own_sizes = sizes[own]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (sums[rows, own] - self_distance) / np.maximum(own_sizes - 1, 1)
        means = sums / sizes[None, :]
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(denom > 0, (b - a) / denom, 0.0)
    return np.where(own_sizes <= 1, 0.0, values)


def silhouette_values(distances: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Return the per-item silhouette values for a flat clustering.

    Every item-to-cluster distance sum comes from one ``d @ indicator``
    matmul.

    Parameters
    ----------
    distances:
        Symmetric ``(n, n)`` dissimilarity matrix.
    labels:
        Cluster label for each of the ``n`` items.
    """
    d, lab = _validate(distances, labels)
    n = d.shape[0]
    _, inverse = np.unique(lab, return_inverse=True)
    k = int(inverse.max()) + 1 if n else 0
    if k < 2:
        return np.zeros(n)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), inverse] = 1.0
    sums = d @ onehot
    sizes = onehot.sum(axis=0)
    return _silhouette_from_sums(sums, sizes, inverse, np.diagonal(d).copy())


def _cut_sums(
    d: np.ndarray, labelings: Mapping[int, Sequence[int]]
) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Item-to-cluster distance sums for every cut, sharing one big matmul.

    Dendrogram cuts are nested: the finest requested cut refines every
    coarser one, so ``d @ onehot(finest)`` is computed once and each
    coarser cut's sums follow from a cheap ``(n, k_max) @ (k_max, k)``
    aggregation.  Non-nested labelings (not from one merge tree) are
    detected and scored with their own matmul instead.
    """
    n = d.shape[0]
    by_k: Dict[int, np.ndarray] = {}
    for k in labelings:
        lab = np.asarray(labelings[k], dtype=int)
        if lab.shape != (n,):
            raise ValueError("labels must have one entry per item")
        _, by_k[k] = np.unique(lab, return_inverse=True)

    finest_k = max(by_k, key=lambda k: int(by_k[k].max()))
    fine = by_k[finest_k]
    n_fine = int(fine.max()) + 1
    onehot = np.zeros((n, n_fine))
    onehot[np.arange(n), fine] = 1.0
    fine_sums = d @ onehot
    fine_sizes = onehot.sum(axis=0)

    out: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for k, lab in by_k.items():
        n_clusters = int(lab.max()) + 1
        mapping = np.full(n_fine, -1, dtype=int)
        mapping[fine] = lab
        if np.array_equal(mapping[fine], lab) and (mapping >= 0).all():
            merge = np.zeros((n_fine, n_clusters))
            merge[np.arange(n_fine), mapping] = 1.0
            out[k] = (fine_sums @ merge, fine_sizes @ merge, lab)
        else:  # not a refinement of the finest cut: score it directly
            oh = np.zeros((n, n_clusters))
            oh[np.arange(n), lab] = 1.0
            out[k] = (d @ oh, oh.sum(axis=0), lab)
    return out


def mean_silhouettes_for_cuts(
    distances: np.ndarray, labelings: Mapping[int, Sequence[int]]
) -> Dict[int, float]:
    """Return ``{k: mean silhouette}`` for many cuts of one distance matrix.

    ``labelings`` maps each candidate cluster count to its flat labels —
    exactly the shape :meth:`HierarchicalClustering.cuts` returns, which is
    the intended producer.  The expensive ``(n, n)`` matmul is shared
    across all (nested) cuts.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if not labelings:
        return {}
    self_distance = np.diagonal(d).copy()
    return {
        k: float(_silhouette_from_sums(sums, sizes, lab, self_distance).mean())
        for k, (sums, sizes, lab) in _cut_sums(d, labelings).items()
    }


def best_silhouette_cut(
    distances: np.ndarray, labelings: Mapping[int, Sequence[int]]
) -> Tuple[float, int, List[int]]:
    """Return ``(score, k, labels)`` of the cut with the best mean silhouette.

    Ties within ``1e-12`` are resolved toward *fewer* clusters, matching the
    paper's goal of a minimal signature set (and the historical sweep loops
    in the DTW/feature clustering modules).
    """
    if not labelings:
        raise ValueError("need at least one candidate cut")
    scores = mean_silhouettes_for_cuts(distances, labelings)
    best: Optional[Tuple[float, int, List[int]]] = None
    for k in sorted(labelings):
        if best is None or scores[k] > best[0] + 1e-12:
            best = (scores[k], k, list(labelings[k]))
    assert best is not None
    return best
