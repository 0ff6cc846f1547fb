"""The GNAT — geometric near-neighbor access tree (Brin, VLDB 1995).

Where the VP-tree splits two ways around one pivot, the GNAT splits
*m* ways around m *split points* per node and compensates for the extra
build cost with much richer pruning information: every node stores, for
each ordered pair of split points ``(i, j)``, the exact interval
``[low, high]`` of distances from split point ``i`` to the members of
subtree ``j``.  One query-to-split-point distance then prunes with *m*
triangle-inequality tests instead of one:

    if ``[d(q, p_i) - r, d(q, p_i) + r]`` misses ``range[i][j]``,
    subtree ``j`` cannot contain an answer.

Split points are chosen greedily max-min ("spread out"): the first at
random, each next one maximizing its minimum distance to those already
chosen — the same heuristic Brin used, which tends to pick points near
mutually distant cluster centers.

Range search follows the paper; k-NN search (which the paper left open)
is the natural best-first extension: children are visited in order of
the strongest available lower bound, with the bound re-checked against
the shrinking candidate radius before each expansion.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import IndexingError
from repro.index.base import MetricIndex, Neighbor
from repro.index.pivot import anchor_distances
from repro.index.stats import SearchStats
from repro.metrics.base import Metric

__all__ = ["GNAT", "greedy_maxmin_rows"]


def greedy_maxmin_rows(
    vectors: np.ndarray,
    count: int,
    dist,
    rng: np.random.Generator,
    *,
    dist_batch=None,
) -> list[int]:
    """Pick ``count`` well-spread row indices by greedy max-min selection.

    The first row is random; each subsequent row maximizes its minimum
    distance to the rows already picked.  Costs ``count * n`` distance
    evaluations through ``dist`` — or one batched kernel pass per sweep
    when the caller supplies its counted ``dist_batch``.
    """
    n = vectors.shape[0]
    if count > n:
        raise IndexingError(f"cannot pick {count} split points from {n} items")

    def sweep(anchor_row: int) -> np.ndarray:
        return anchor_distances(vectors[anchor_row], vectors, dist, dist_batch)

    first = int(rng.integers(n))
    chosen = [first]
    min_dist = sweep(first)
    while len(chosen) < count:
        candidate = int(np.argmax(min_dist))
        if min_dist[candidate] == 0.0 and n > len(chosen):
            # All remaining points coincide with chosen ones; any row not
            # yet chosen keeps the selection well-defined.
            remaining = [row for row in range(n) if row not in chosen]
            candidate = remaining[0]
        chosen.append(candidate)
        min_dist = np.minimum(min_dist, sweep(candidate))
    return chosen


@dataclass
class _LeafNode:
    ids: list[int]
    vectors: np.ndarray


@dataclass
class _InnerNode:
    split_ids: list[int]
    split_vectors: np.ndarray
    children: list["_InnerNode | _LeafNode | None"]
    #: ``low[i, j]`` / ``high[i, j]``: distance interval from split point
    #: i to everything stored under child j (including split point j).
    low: np.ndarray = field(default_factory=lambda: np.empty(0))
    high: np.ndarray = field(default_factory=lambda: np.empty(0))


class GNAT(MetricIndex):
    """Geometric near-neighbor access tree over an arbitrary metric.

    Parameters
    ----------
    metric:
        Any true metric.
    degree:
        Split points (and children) per internal node, default 8.
    leaf_size:
        Item sets of at most this size become leaf buckets (default:
        ``degree``, so a node always has enough items for its splits).
    seed:
        Seed for the random choice of the first split point.
    """

    def __init__(
        self,
        metric: Metric,
        *,
        degree: int = 8,
        leaf_size: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        if degree < 2:
            raise IndexingError(f"degree must be >= 2; got {degree}")
        leaf_size = degree if leaf_size is None else leaf_size
        if leaf_size < degree:
            raise IndexingError(
                f"leaf_size must be >= degree ({degree}); got {leaf_size}"
            )
        self._degree = degree
        self._leaf_size = leaf_size
        self._seed = seed
        self._root: _InnerNode | _LeafNode | None = None

    @property
    def degree(self) -> int:
        """Split points per internal node."""
        return self._degree

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        self._root = self._build_node(list(ids), vectors, rng, depth=0)

    def _build_node(
        self, ids: list[int], vectors: np.ndarray, rng: np.random.Generator, depth: int
    ) -> "_InnerNode | _LeafNode":
        stats = self._build_stats
        stats.depth = max(stats.depth, depth)
        if len(ids) <= self._leaf_size:
            stats.n_leaves += 1
            # Contiguous block: leaf scans are single kernel passes.
            return _LeafNode(ids, np.ascontiguousarray(vectors))
        stats.n_nodes += 1

        m = min(self._degree, len(ids))
        split_rows = greedy_maxmin_rows(
            vectors, m, self._build_dist, rng, dist_batch=self._build_dist_batch
        )
        split_ids = [ids[row] for row in split_rows]
        split_vectors = np.ascontiguousarray(vectors[split_rows])

        # Assign every non-split item to its nearest split point, keeping
        # the distances: they seed the range tables for free.  The whole
        # (m, rest) distance matrix is m batched sweeps instead of one
        # interpreted call per (split point, item) pair.
        rest_rows = [row for row in range(len(ids)) if row not in set(split_rows)]
        rest_block = np.ascontiguousarray(vectors[rest_rows])
        distance_matrix = np.empty((m, len(rest_rows)))
        for i in range(m):
            distance_matrix[i] = self._build_dist_batch(split_vectors[i], rest_block)

        low = np.full((m, m), np.inf)
        high = np.zeros((m, m))
        buckets: list[list[int]] = [[] for _ in range(m)]
        owners = (
            np.argmin(distance_matrix, axis=0)
            if rest_rows
            else np.empty(0, dtype=int)
        )
        for owner in range(m):
            columns = np.flatnonzero(owners == owner)
            if columns.size:
                low[:, owner] = distance_matrix[:, columns].min(axis=1)
                high[:, owner] = distance_matrix[:, columns].max(axis=1)
            buckets[owner] = [rest_rows[column] for column in columns]

        # Each child's interval must also cover its own split point.
        for i in range(m):
            pair_distances = self._build_dist_batch(split_vectors[i], split_vectors)
            low[i] = np.minimum(low[i], pair_distances)
            high[i] = np.maximum(high[i], pair_distances)

        children: list[_InnerNode | _LeafNode | None] = []
        for owner, bucket in enumerate(buckets):
            if not bucket:
                children.append(None)
                continue
            children.append(
                self._build_node(
                    [ids[row] for row in bucket], vectors[bucket], rng, depth + 1
                )
            )
        return _InnerNode(split_ids, split_vectors, children, low, high)

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        result: list[Neighbor] = []
        self._range_visit(self._root, query, radius, result)
        return result

    def _range_visit(
        self,
        node: "_InnerNode | _LeafNode | None",
        query: np.ndarray,
        radius: float,
        result: list[Neighbor],
    ) -> None:
        if node is None:
            return
        if isinstance(node, _LeafNode):
            self._search_stats.leaves_visited += 1
            # One kernel pass over the leaf block + a vectorized filter.
            distances = self._dist_batch(query, node.vectors)
            for row in np.flatnonzero(distances <= radius):
                result.append(Neighbor(node.ids[row], float(distances[row])))
            return

        self._search_stats.nodes_visited += 1
        m = len(node.split_ids)
        alive = np.ones(m, dtype=bool)
        for i in range(m):
            if not alive[i]:
                continue
            d = self._dist(query, node.split_vectors[i])
            if d <= radius:
                result.append(Neighbor(node.split_ids[i], d))
            # One computed distance kills every child whose interval from
            # split point i misses the query annulus.
            for j in range(m):
                if j == i or not alive[j]:
                    continue
                if d - radius > node.high[i, j] or d + radius < node.low[i, j]:
                    alive[j] = False
                    if node.children[j] is not None:
                        self._search_stats.nodes_pruned += 1
        for j in range(m):
            if alive[j]:
                self._range_visit(node.children[j], query, radius, result)

    # ------------------------------------------------------------------
    # Shared batched range traversal
    # ------------------------------------------------------------------
    # One walk of the tree serves the whole query batch.  Range search is
    # order-independent *across* queries but not across split points: the
    # scalar loop examines split points in index order precisely so an
    # early distance can kill later split points before they are
    # evaluated.  The shared traversal keeps that order and shares the
    # kernel call the other way around: split point ``i`` is evaluated
    # against every query that still has ``i`` alive in one
    # kernel call (operand order flipped — the bitwise
    # symmetry the parity suite pins), then each query applies its own
    # range-table kills.  Per query, the evaluated split points, the
    # prune decisions, and the child visit order are exactly the scalar
    # path's, so results and per-query counters are bit-identical.
    def _range_search_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[Neighbor]]:
        n_queries = queries.shape[0]
        results: list[list[Neighbor]] = [[] for _ in range(n_queries)]
        stats = [SearchStats() for _ in range(n_queries)]

        def visit(node: "_InnerNode | _LeafNode | None", rows: list[int]) -> None:
            if node is None or not rows:
                return
            if isinstance(node, _LeafNode):
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

            m = len(node.split_ids)
            has_child = np.array(
                [child is not None for child in node.children], dtype=bool
            )
            alive = {qi: np.ones(m, dtype=bool) for qi in rows}
            for qi in rows:
                stats[qi].nodes_visited += 1
            for i in range(m):
                active = [qi for qi in rows if alive[qi][i]]
                if not active:
                    continue
                split_distances = self._metric._kernel(
                    node.split_vectors[i], queries[active]
                ).tolist()
                for qi, d in zip(active, split_distances):
                    st = stats[qi]
                    st.distance_computations += 1
                    if d <= radius:
                        results[qi].append(Neighbor(node.split_ids[i], d))
                    row_alive = alive[qi]
                    killed = (d - radius > node.high[i]) | (
                        d + radius < node.low[i]
                    )
                    killed[i] = False
                    killed &= row_alive
                    if killed.any():
                        row_alive[killed] = False
                        st.nodes_pruned += int(has_child[killed].sum())
            for j in range(m):
                visit(
                    node.children[j], [qi for qi in rows if alive[qi][j]]
                )

        visit(self._root, list(range(n_queries)))
        return self._finish_batch(results, stats)

    # ------------------------------------------------------------------
    # k-NN search
    # ------------------------------------------------------------------
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        best: list[tuple[float, int]] = []  # max-heap as (-distance, id)
        tiebreak = itertools.count()
        queue: list[tuple[float, int, object]] = [(0.0, next(tiebreak), self._root)]

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

        while queue:
            bound, _, node = heapq.heappop(queue)
            if node is None:
                continue
            if bound > tau():
                self._search_stats.nodes_pruned += 1
                continue
            if isinstance(node, _LeafNode):
                self._search_stats.leaves_visited += 1
                # One kernel pass over the leaf block.
                for item_id, d in zip(
                    node.ids, self._dist_batch(query, node.vectors).tolist()
                ):
                    offer(item_id, d)
                continue

            self._search_stats.nodes_visited += 1
            m = len(node.split_ids)
            lower = np.zeros(m)
            # Every split point's distance is needed (the scalar loop had
            # no short-circuit), so all m are one batched evaluation.
            split_distances = self._dist_batch(query, node.split_vectors).tolist()
            for i, d in enumerate(split_distances):
                offer(node.split_ids[i], d)
                lower = np.maximum(
                    lower, np.maximum(node.low[i] - d, d - node.high[i])
                )
            for j in range(m):
                if node.children[j] is None:
                    continue
                child_bound = max(float(lower[j]), 0.0)
                if child_bound <= tau():
                    heapq.heappush(
                        queue, (child_bound, next(tiebreak), node.children[j])
                    )
                else:
                    self._search_stats.nodes_pruned += 1

        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in best]
