"""k-d tree: the coordinate-space baseline.

Unlike the metric trees, a k-d tree needs coordinates, not just distances:
it splits on the median of the widest dimension and prunes using the
geometric distance from the query to a subtree's bounding box.  That makes
it inapplicable to black-box metrics (quadratic form, Hausdorff, shifted
matching) — precisely the gap the paper's metric-space indexing fills —
but on plain Minkowski distances it is the natural comparison point for
experiments F1/F2.

Box lower bounds are coordinate arithmetic, not metric evaluations, so
they are *not* counted as distance computations; this mirrors the cost
model of the era (a distance computation = fetching a feature vector),
and is exactly why the k-d tree looks strong at low dimensionality.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import IndexingError
from repro.index.base import MetricIndex, Neighbor
from repro.index.stats import SearchStats
from repro.metrics.base import Metric
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)

__all__ = ["KDTree"]


@dataclass
class _KDLeaf:
    ids: list[int]
    vectors: np.ndarray


@dataclass
class _KDNode:
    split_dim: int
    split_value: float
    left: "_KDNode | _KDLeaf"
    right: "_KDNode | _KDLeaf"
    box_low: np.ndarray
    box_high: np.ndarray


class KDTree(MetricIndex):
    """Median-split k-d tree for Minkowski metrics.

    Parameters
    ----------
    metric:
        One of the Minkowski-family metrics (L1, L2, L-infinity, general
        L_p, weighted L2).  Anything else is rejected — the box lower
        bound would be unsound.
    leaf_size:
        Maximum items per leaf bucket (default 8).
    """

    def __init__(self, metric: Metric, *, leaf_size: int = 8) -> None:
        super().__init__(metric)
        if not isinstance(
            metric,
            (
                ManhattanDistance,
                EuclideanDistance,
                ChebyshevDistance,
                MinkowskiDistance,
                WeightedEuclideanDistance,
            ),
        ):
            raise IndexingError(
                f"KDTree requires a Minkowski-family metric; got {metric.name}"
            )
        if leaf_size < 1:
            raise IndexingError(f"leaf_size must be >= 1; got {leaf_size}")
        self._leaf_size = leaf_size
        self._root: _KDNode | _KDLeaf | None = None

    # ------------------------------------------------------------------
    # Box lower bound under the configured metric
    # ------------------------------------------------------------------
    # The scalar and batched bounds must agree to the last ulp — a prune
    # decision may not depend on which entry point evaluated it — so both
    # stick to elementwise arithmetic plus last-axis reductions (the same
    # rules the metric kernels follow; BLAS-backed ``linalg.norm``
    # accumulates differently for one vector than for a matrix of them).
    def _box_lower_bound(
        self, query: np.ndarray, low: np.ndarray, high: np.ndarray
    ) -> float:
        excess = np.maximum(np.maximum(low - query, query - high), 0.0)
        metric = self._metric
        if isinstance(metric, ManhattanDistance):
            return float(excess.sum())
        if isinstance(metric, EuclideanDistance):
            return float(np.sqrt((excess * excess).sum()))
        if isinstance(metric, ChebyshevDistance):
            return float(excess.max())
        if isinstance(metric, WeightedEuclideanDistance):
            return float(np.sqrt(np.sum(metric.weights * excess * excess)))
        assert isinstance(metric, MinkowskiDistance)
        return float(np.sum(excess**metric.p) ** (1.0 / metric.p))

    def _box_lower_bound_batch(
        self, queries: np.ndarray, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        """:meth:`_box_lower_bound` for a query matrix, row-identical."""
        excess = np.maximum(np.maximum(low[None, :] - queries, queries - high[None, :]), 0.0)
        metric = self._metric
        if isinstance(metric, ManhattanDistance):
            return excess.sum(axis=1)
        if isinstance(metric, EuclideanDistance):
            return np.sqrt((excess * excess).sum(axis=1))
        if isinstance(metric, ChebyshevDistance):
            return excess.max(axis=1)
        if isinstance(metric, WeightedEuclideanDistance):
            return np.sqrt(np.sum(metric.weights * excess * excess, axis=1))
        assert isinstance(metric, MinkowskiDistance)
        return np.sum(excess**metric.p, axis=1) ** (1.0 / metric.p)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        self._root = self._build_node(list(ids), vectors, depth=0)

    def _build_node(
        self, ids: list[int], vectors: np.ndarray, depth: int
    ) -> "_KDNode | _KDLeaf":
        stats = self._build_stats
        stats.depth = max(stats.depth, depth)
        if len(ids) <= self._leaf_size:
            stats.n_leaves += 1
            # Contiguous block: leaf scans are single kernel passes.
            return _KDLeaf(ids, np.ascontiguousarray(vectors))

        box_low = vectors.min(axis=0)
        box_high = vectors.max(axis=0)
        spreads = box_high - box_low
        split_dim = int(np.argmax(spreads))
        if spreads[split_dim] <= 0.0:
            # All points identical: no split possible.
            stats.n_leaves += 1
            return _KDLeaf(ids, np.ascontiguousarray(vectors))

        column = vectors[:, split_dim]
        split_value = float(np.median(column))
        left_mask = column <= split_value
        if left_mask.all() or not left_mask.any():
            # Median equals the maximum (heavy ties): split strictly below.
            left_mask = column < split_value
            if not left_mask.any():
                stats.n_leaves += 1
                return _KDLeaf(ids, np.ascontiguousarray(vectors))

        stats.n_nodes += 1
        right_mask = ~left_mask
        return _KDNode(
            split_dim=split_dim,
            split_value=split_value,
            left=self._build_node(
                [i for i, keep in zip(ids, left_mask) if keep],
                vectors[left_mask],
                depth + 1,
            ),
            right=self._build_node(
                [i for i, keep in zip(ids, right_mask) if keep],
                vectors[right_mask],
                depth + 1,
            ),
            box_low=box_low,
            box_high=box_high,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        result: list[Neighbor] = []

        def visit(node: "_KDNode | _KDLeaf") -> None:
            if isinstance(node, _KDLeaf):
                self._search_stats.leaves_visited += 1
                # One kernel pass over the leaf block + vectorized filter.
                distances = self._dist_batch(query, node.vectors)
                for row in np.flatnonzero(distances <= radius):
                    result.append(Neighbor(node.ids[row], float(distances[row])))
                return
            self._search_stats.nodes_visited += 1
            for child in (node.left, node.right):
                bound = self._child_bound(child, query)
                if bound <= radius:
                    visit(child)
                else:
                    self._search_stats.nodes_pruned += 1

        if self._root is not None:
            visit(self._root)
        return result

    def _child_bound(self, child: "_KDNode | _KDLeaf", query: np.ndarray) -> float:
        if isinstance(child, _KDNode):
            return self._box_lower_bound(query, child.box_low, child.box_high)
        if child.vectors.shape[0] == 0:
            return np.inf
        return self._box_lower_bound(
            query, child.vectors.min(axis=0), child.vectors.max(axis=0)
        )

    def _child_bound_batch(
        self, child: "_KDNode | _KDLeaf", queries: np.ndarray
    ) -> np.ndarray:
        if isinstance(child, _KDNode):
            return self._box_lower_bound_batch(queries, child.box_low, child.box_high)
        if child.vectors.shape[0] == 0:
            return np.full(queries.shape[0], np.inf)
        return self._box_lower_bound_batch(
            queries, child.vectors.min(axis=0), child.vectors.max(axis=0)
        )

    # ------------------------------------------------------------------
    # Shared batched range traversal
    # ------------------------------------------------------------------
    # Range mode is order-independent, so one walk serves the whole query
    # batch: each child's box lower bound is evaluated for every active
    # query in one vectorized computation (box bounds are coordinate
    # arithmetic, not counted distance computations), and each leaf block
    # is one kernel pass per surviving query.  Per query the visited
    # nodes, prune decisions, and counters are exactly the scalar path's.
    # k-NN keeps the per-query loop: its best-first pop order and prune
    # tests depend on the query's own shrinking tau.
    def _range_search_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[Neighbor]]:
        n_queries = queries.shape[0]
        results: list[list[Neighbor]] = [[] for _ in range(n_queries)]
        stats = [SearchStats() for _ in range(n_queries)]

        def visit(node: "_KDNode | _KDLeaf", rows: list[int]) -> None:
            if not rows:
                return
            if isinstance(node, _KDLeaf):
                for qi in rows:
                    st = stats[qi]
                    st.leaves_visited += 1
                    st.distance_computations += node.vectors.shape[0]
                    distances = self._metric._kernel(queries[qi], node.vectors)
                    for row in np.flatnonzero(distances <= radius):
                        results[qi].append(
                            Neighbor(node.ids[row], float(distances[row]))
                        )
                return
            for qi in rows:
                stats[qi].nodes_visited += 1
            active = queries[rows]
            for child in (node.left, node.right):
                bounds = self._child_bound_batch(child, active).tolist()
                survivors: list[int] = []
                for qi, bound in zip(rows, bounds):
                    if bound <= radius:
                        survivors.append(qi)
                    else:
                        stats[qi].nodes_pruned += 1
                visit(child, survivors)

        if self._root is not None:
            visit(self._root, list(range(n_queries)))
        return self._finish_batch(results, stats)

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        best: list[tuple[float, int]] = []

        def tau() -> float:
            return -best[0][0] if len(best) == k else np.inf

        def offer(item_id: int, d: float) -> None:
            # (-d, -id): the max-heap then evicts the larger id among
            # equal-distance entries, matching the documented tie-break.
            entry = (-d, -item_id)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)

        counter = itertools.count()
        frontier: list[tuple[float, int, "_KDNode | _KDLeaf"]] = []
        if self._root is not None:
            heapq.heappush(frontier, (0.0, next(counter), self._root))

        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > tau():
                self._search_stats.nodes_pruned += 1
                continue
            if isinstance(node, _KDLeaf):
                self._search_stats.leaves_visited += 1
                # One kernel pass over the leaf block.
                for item_id, d in zip(
                    node.ids, self._dist_batch(query, node.vectors).tolist()
                ):
                    offer(item_id, d)
                continue
            self._search_stats.nodes_visited += 1
            for child in (node.left, node.right):
                child_bound = self._child_bound(child, query)
                if child_bound <= tau():
                    heapq.heappush(frontier, (child_bound, next(counter), child))
                else:
                    self._search_stats.nodes_pruned += 1

        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in best]
