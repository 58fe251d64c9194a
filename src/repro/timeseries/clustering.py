"""Agglomerative hierarchical clustering over precomputed dissimilarities.

Section III-A applies hierarchical clustering to the pairwise DTW distance
matrix, sweeping the number of clusters from 2 to ``(M*N)/2`` and selecting
the cut with the best mean silhouette.  This module provides the clustering
half: a from-scratch agglomerative algorithm with average (UPGMA) linkage,
the paper's, that operates on any precomputed symmetric distance matrix, and
a dendrogram cut for an arbitrary number of clusters.

The implementation follows the classical Lance-Williams style update on the
full distance matrix, which is O(n^3) in the worst case — more than fast
enough for the per-box problem sizes here (a few dozen series per box).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np

__all__ = ["Merge", "HierarchicalClustering"]


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: clusters ``left`` and ``right`` merge at ``height``.

    Cluster ids follow the scipy convention: ids ``0..n-1`` are the original
    observations; the merge recorded at step ``k`` creates cluster ``n + k``.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass
class HierarchicalClustering:
    """Average-linkage agglomerative clustering of ``n`` items.

    Parameters
    ----------
    distances:
        Symmetric ``(n, n)`` dissimilarity matrix with a zero diagonal.

    Examples
    --------
    >>> import numpy as np
    >>> d = np.array([[0., 1., 9.], [1., 0., 9.], [9., 9., 0.]])
    >>> hc = HierarchicalClustering(d)
    >>> hc.cuts([2])
    {2: [0, 0, 1]}
    """

    distances: np.ndarray
    merges: List[Merge] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got {d.shape}")
        if d.shape[0] < 1:
            raise ValueError("need at least one item")
        if not np.allclose(d, d.T, atol=1e-9):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance matrix must have a zero diagonal")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        self.distances = d
        self.merges = self._build()
        self._cut_cache: Dict[int, List[int]] = {}

    @property
    def n_items(self) -> int:
        return self.distances.shape[0]

    def _build(self) -> List[Merge]:
        n = self.n_items
        if n == 1:
            return []
        # The matrix shrinks logically via the `alive` mask; merged rows keep
        # their slot and carry the id of the cluster they now represent.
        # Dead rows/columns are parked at inf so the closest active pair is
        # one argmin over the full matrix — no O(n^2) submatrix copy per
        # merge.  Row-major argmin over the full matrix visits the alive
        # entries in the same order as the compacted submatrix would, so
        # tie-breaking is unchanged.
        dist = self.distances.copy()
        np.fill_diagonal(dist, np.inf)
        cluster_id = list(range(n))
        sizes = [1] * n
        merges: List[Merge] = []
        alive = np.ones(n, dtype=bool)
        next_id = n
        for _ in range(n - 1):
            # Find the closest active pair.
            i, j = divmod(int(np.argmin(dist)), n)
            if i == j:  # pragma: no cover - argmin on inf diagonal prevents this
                raise RuntimeError("degenerate merge")
            height = float(dist[i, j])
            merges.append(
                Merge(
                    left=cluster_id[i],
                    right=cluster_id[j],
                    height=height,
                    size=sizes[i] + sizes[j],
                )
            )
            # Merge j into i using the Lance-Williams (UPGMA) update.
            others = np.flatnonzero(alive)
            others = others[(others != i) & (others != j)]
            if others.size:
                wi, wj = sizes[i], sizes[j]
                new = (wi * dist[i, others] + wj * dist[j, others]) / (wi + wj)
                dist[i, others] = new
                dist[others, i] = new
            dist[j, :] = np.inf
            dist[:, j] = np.inf
            alive[j] = False
            sizes[i] += sizes[j]
            cluster_id[i] = next_id
            next_id += 1
        return merges

    def cuts(self, n_clusters_list: Iterable[int]) -> Dict[int, List[int]]:
        """Return ``{k: labels}`` for every requested cluster count ``k``.

        Labels are renumbered ``0..k-1`` in order of first appearance, and
        cuts are cached per instance.  All requested cuts are produced in a single incremental replay of the
        merge sequence (one union-find pass), instead of re-cutting the
        dendrogram from scratch per ``k`` — the silhouette sweep over
        ``k = 2..n/2`` drops from O(n^2 · merges) to O(n · merges).
        Each cut's labels are identical to what a fresh per-``k`` cut yields.
        """
        n = self.n_items
        wanted = sorted({int(k) for k in n_clusters_list})
        for k in wanted:
            if not 1 <= k <= n:
                raise ValueError(f"n_clusters must be in [1, {n}], got {k}")
        missing = {k for k in wanted if k not in self._cut_cache}
        if missing:
            parent = list(range(n + len(self.merges)))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            def record(k: int) -> None:
                roots = [find(i) for i in range(n)]
                relabel: Dict[int, int] = {}
                labels = []
                for root in roots:
                    if root not in relabel:
                        relabel[root] = len(relabel)
                    labels.append(relabel[root])
                self._cut_cache[k] = labels

            if n in missing:
                record(n)
            remaining = n
            stop_at = min(missing)
            for step, merge in enumerate(self.merges):
                if remaining <= stop_at:
                    break
                new_cluster = n + step
                parent[find(merge.left)] = new_cluster
                parent[find(merge.right)] = new_cluster
                remaining -= 1
                if remaining in missing:
                    record(remaining)
        return {k: list(self._cut_cache[k]) for k in wanted}


def clusters_as_lists(labels: List[int]) -> List[List[int]]:
    """Group item indices by cluster label, ordered by label."""
    n_clusters = max(labels) + 1 if labels else 0
    groups: List[List[int]] = [[] for _ in range(n_clusters)]
    for idx, label in enumerate(labels):
        groups[label].append(idx)
    return groups
