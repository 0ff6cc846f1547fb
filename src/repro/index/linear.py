"""Linear scan: the exact, index-free baseline.

Every query computes the distance to all N items.  This is both the
correctness oracle for the tree indexes (property tests compare against
it) and the cost baseline the evaluation's speedup factors are quoted
against.  It accepts non-metric distances, since it never prunes.

Scalar and batched queries share one implementation, and so do all
storage backends: each query is one sweep of metric kernel calls
over the blocks the core's backend hands out (cache-sized slices
in memory, runs of buffer-pool pages on disk — ``docs/storage.md``),
run-aligned parts of it on every usable core at once, followed by a
selection of the k smallest that never sorts all N.  The cost
accounting is exact — N counted distance computations and the same
page reads per query, batch or not, whatever the block size or part
count.
"""

from __future__ import annotations

import numpy as np

from repro.db.backend import sweep
from repro.index.base import MetricIndex, Neighbor, neighbors_at

__all__ = ["LinearScanIndex"]


class LinearScanIndex(MetricIndex):
    """Brute-force scan over all stored vectors."""

    requires_metric = False

    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        # Nothing to construct: the validated arrays on the base class are
        # the whole data structure.
        self._build_stats.n_leaves = 1
        self._build_stats.depth = 0

    def _insert_batch(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        # The arrays *are* the structure, so insertion is a row append —
        # no pending buffer, no extra query cost.
        self._append_core(ids, vectors)

    def _reclaim_core(self) -> None:
        # True deletion: dead rows leave the scan entirely.
        self._compact_core()

    def _scan(self, query: np.ndarray) -> np.ndarray:
        """All N distances, counted exactly once per item.

        One :func:`~repro.db.backend.sweep` of the metric kernel over the
        core, its parts on every usable core at once.  The kernels are
        row-independent, so the distances are bit-identical to one
        whole-matrix evaluation whatever the blocks and parts, and the
        counted total is the same N.
        """
        assert self._core is not None
        distances = np.empty(len(self._row_of), dtype=np.float64)
        kernel = self._metric._kernel
        sweep(self._core, lambda block: kernel(query, block), distances)
        self._search_stats.distance_computations += distances.shape[0]
        self._search_stats.leaves_visited += 1
        return distances

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        distances = self._scan(query)
        return neighbors_at(self._ids, np.flatnonzero(distances <= radius), distances)

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        distances = self._scan(query)
        rows = _k_smallest(distances, k)
        live = self.live_mask.bits
        if not live[self._ids[rows]].all():  # only after a failed compaction
            # Dropping rows after the k-th keeps the stable order's prefix.
            kept = np.flatnonzero(live[self._ids])
            rows = kept[_k_smallest(distances[kept], k)]
        return neighbors_at(self._ids, rows, distances)


def _k_smallest(distances: np.ndarray, k: int) -> np.ndarray:
    """Exactly ``np.argsort(distances, kind="stable")[:k]`` — nearest
    first, earliest-inserted first among equals — without sorting n
    values to return k: a partition finds the k-th smallest value and
    only the rows not beyond it are sorted.  "Not greater" rather than
    "less or equal" because a non-metric kernel may yield ``nan``: both
    sorts put it last, and a ``nan`` k-th value keeps every row.
    """
    if k >= distances.shape[0]:
        return np.argsort(distances, kind="stable")
    kth = np.partition(distances, k - 1)[k - 1]
    rows = np.flatnonzero(~(distances > kth))
    return rows[np.argsort(distances[rows], kind="stable")[:k]]
