"""The vantage-point tree — the reproduction's headline index.

Construction (recursive):

1. choose a *vantage point* (pivot) from the current item set,
2. compute the distance from the pivot to every remaining item,
3. split at the median distance ``mu``: items with ``d <= mu`` form the
   *inside* subtree, the rest the *outside* subtree,
4. recurse until subsets fit in a leaf bucket.

Each node also stores the exact distance interval ``[low, high]`` of each
child subset as seen from the pivot — tighter than ``[0, mu]`` /
``[mu, inf)`` and therefore better at pruning.

Search relies solely on the triangle inequality: if the query is at
distance ``d`` from a pivot, every item in a child whose interval is
``[low, high]`` satisfies ``distance(query, item) >= max(low - d, d - high, 0)``,
so a child whose interval does not intersect ``[d - r, d + r]`` cannot
contain an answer.  k-NN search is branch-and-bound: ``r`` is the
distance of the current k-th best candidate and shrinks as better
candidates surface; the child closer to the query is explored first to
shrink ``r`` early.

Two bounded approximation modes (experiment F5):

* ``epsilon > 0`` — prune children unless they could contain an item
  closer than ``tau / (1 + epsilon)``; every reported neighbour is then
  within ``(1 + epsilon)`` of the true k-th distance.
* ``max_distance_computations`` — hard budget; search stops expanding new
  nodes once spent (already-found candidates are returned).

All hot loops ride ``Metric.distance_batch``: the build evaluates each
node's pivot against the remaining items in one kernel call, leaves are
scanned as one batched evaluation over their contiguous vector block
(truncated to the remaining budget in budgeted mode, so the accounting
matches the scalar path item for item), and the batched entry points run
a *shared* traversal — every node visit evaluates its pivot against all
still-active queries of the batch in a single kernel call instead of one
per query.  The shared traversal replays each query's scalar visit
order exactly (per-query child ordering and branch-and-bound pruning),
so results and per-query cost counters stay bit-identical to the scalar
path; it also relies on the metric axiom ``d(p, q) == d(q, p)`` holding
at the bit level, which every shipped kernel satisfies (elementwise
arithmetic is commutative/sign-symmetric; the parity suite checks it).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import IndexingError
from repro.index.base import MetricIndex, Neighbor
from repro.index.pivot import MaxSpreadPivot, PivotStrategy
from repro.index.stats import SearchStats
from repro.metrics.base import Metric

__all__ = ["VPTree"]


@dataclass
class _Leaf:
    ids: list[int]
    vectors: np.ndarray


@dataclass
class _Node:
    pivot_id: int
    pivot_vector: np.ndarray
    inside: "_Node | _Leaf | None"
    outside: "_Node | _Leaf | None"
    in_low: float
    in_high: float
    out_low: float
    out_high: float


class VPTree(MetricIndex):
    """Vantage-point tree over an arbitrary metric.

    Parameters
    ----------
    metric:
        Any true metric (the triangle inequality is load-bearing).
    leaf_size:
        Maximum items per leaf bucket (default 8).  Smaller leaves prune
        more but cost more pivot evaluations per query.
    pivot_strategy:
        How vantage points are chosen (default :class:`MaxSpreadPivot`).
    seed:
        Seed for the strategy's random generator; builds are deterministic
        given (data, parameters, seed).
    """

    def __init__(
        self,
        metric: Metric,
        *,
        leaf_size: int = 8,
        pivot_strategy: PivotStrategy | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        if leaf_size < 1:
            raise IndexingError(f"leaf_size must be >= 1; got {leaf_size}")
        self._leaf_size = leaf_size
        self._pivot_strategy = pivot_strategy or MaxSpreadPivot()
        self._seed = seed
        self._root: _Node | _Leaf | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        self._root = self._build_node(list(ids), vectors, rng, depth=0)

    def _build_node(
        self, ids: list[int], vectors: np.ndarray, rng: np.random.Generator, depth: int
    ) -> "_Node | _Leaf":
        stats = self._build_stats
        stats.depth = max(stats.depth, depth)
        if len(ids) <= self._leaf_size:
            stats.n_leaves += 1
            # A contiguous block: leaf scans are single kernel passes and
            # must never hand the metric a strided view.
            return _Leaf(ids, np.ascontiguousarray(vectors))

        pivot_row = self._pivot_strategy.select(
            vectors, self._build_dist, rng, dist_batch=self._build_dist_batch
        )
        pivot_id = ids[pivot_row]
        # An owned row: a view would keep this level's whole ``vectors``
        # temporary alive for as long as the node exists.
        pivot_vector = vectors[pivot_row].copy()

        rest_ids = [item_id for row, item_id in enumerate(ids) if row != pivot_row]
        rest_vectors = np.ascontiguousarray(
            np.delete(vectors, pivot_row, axis=0)
        )
        distances = self._build_dist_batch(pivot_vector, rest_vectors)

        mu = float(np.median(distances))
        inside_mask = distances <= mu
        outside_mask = ~inside_mask

        # Degenerate split (all items at the same distance): bucket them.
        if not inside_mask.any() or not outside_mask.any():
            stats.n_nodes += 1
            only_mask = inside_mask if inside_mask.any() else outside_mask
            child = self._build_node(
                [i for i, keep in zip(rest_ids, only_mask) if keep],
                rest_vectors[only_mask],
                rng,
                depth + 1,
            )
            d_lo = float(distances.min())
            d_hi = float(distances.max())
            if inside_mask.any():
                return _Node(pivot_id, pivot_vector, child, None, d_lo, d_hi, 0.0, 0.0)
            return _Node(pivot_id, pivot_vector, None, child, 0.0, 0.0, d_lo, d_hi)

        stats.n_nodes += 1
        inside = self._build_node(
            [i for i, keep in zip(rest_ids, inside_mask) if keep],
            rest_vectors[inside_mask],
            rng,
            depth + 1,
        )
        outside = self._build_node(
            [i for i, keep in zip(rest_ids, outside_mask) if keep],
            rest_vectors[outside_mask],
            rng,
            depth + 1,
        )
        return _Node(
            pivot_id,
            pivot_vector,
            inside,
            outside,
            float(distances[inside_mask].min()),
            float(distances[inside_mask].max()),
            float(distances[outside_mask].min()),
            float(distances[outside_mask].max()),
        )

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        result: list[Neighbor] = []
        self._range_visit(self._root, query, radius, result)
        return result

    def _range_visit(
        self,
        node: "_Node | _Leaf | None",
        query: np.ndarray,
        radius: float,
        result: list[Neighbor],
    ) -> None:
        if node is None:
            return
        if isinstance(node, _Leaf):
            self._search_stats.leaves_visited += 1
            # One kernel pass over the leaf block + a vectorized filter.
            distances = self._dist_batch(query, node.vectors)
            for row in np.flatnonzero(distances <= radius):
                result.append(Neighbor(node.ids[row], float(distances[row])))
            return

        self._search_stats.nodes_visited += 1
        d = self._dist(query, node.pivot_vector)
        if d <= radius:
            result.append(Neighbor(node.pivot_id, d))

        if node.inside is not None:
            if d - radius <= node.in_high and d + radius >= node.in_low:
                self._range_visit(node.inside, query, radius, result)
            else:
                self._search_stats.nodes_pruned += 1
        if node.outside is not None:
            if d - radius <= node.out_high and d + radius >= node.out_low:
                self._range_visit(node.outside, query, radius, result)
            else:
                self._search_stats.nodes_pruned += 1

    # ------------------------------------------------------------------
    # k-NN search
    # ------------------------------------------------------------------
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        return self._knn_impl(query, k, epsilon=0.0, budget=None)

    def knn_search_approximate(
        self,
        query: np.ndarray,
        k: int,
        *,
        epsilon: float = 0.0,
        max_distance_computations: int | None = None,
    ) -> list[Neighbor]:
        """Approximate k-NN with a relative-error and/or budget bound.

        Parameters
        ----------
        epsilon:
            Relative slack: children are pruned unless they could contain
            an item closer than ``tau / (1 + epsilon)``.  ``0`` is exact.
        max_distance_computations:
            Hard cap on *tree-traversal* metric evaluations for this
            query; when reached, unexpanded subtrees are abandoned.
            ``None`` means unlimited.  On a mutated index the pending
            buffer is always scanned in full regardless — those
            evaluations are counted in ``last_stats`` but not charged
            against the budget, so the total count can exceed the cap
            by up to ``n_pending`` (correctness over the live item set
            is never traded away; see ``docs/mutability.md``).
        """
        query = self._check_query(query)
        if k < 1:
            raise IndexingError(f"k must be >= 1; got {k}")
        if epsilon < 0.0:
            raise IndexingError(f"epsilon must be non-negative; got {epsilon}")
        if max_distance_computations is not None and max_distance_computations < 1:
            raise IndexingError("max_distance_computations must be >= 1")
        self._search_stats = SearchStats()
        self._batch_stats = []
        result = self._knn_impl(
            query, self._structural_k(int(k)), epsilon, max_distance_computations
        )
        # The mutation overlay stays exact even in approximate mode:
        # tombstoned hits drop out and the pending buffer is always
        # scanned in full (its evaluations are counted but not charged
        # against the traversal budget, which bounds tree work only).
        result = self._overlay_knn(query, result)
        result.sort(key=lambda nb: (nb.distance, nb.id))
        return result[: int(k)]

    def _knn_impl(
        self, query: np.ndarray, k: int, epsilon: float, budget: int | None
    ) -> list[Neighbor]:
        # Max-heap of the k best candidates, as (-distance, id).
        heap: list[tuple[float, int]] = []
        shrink = 1.0 / (1.0 + epsilon)

        def tau() -> float:
            return -heap[0][0] if len(heap) == k else np.inf

        def offer(item_id: int, d: float) -> None:
            # (-d, -id): the max-heap then evicts the larger id among
            # equal-distance entries, matching the documented tie-break.
            entry = (-d, -item_id)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

        def out_of_budget() -> bool:
            return (
                budget is not None
                and self._search_stats.distance_computations >= budget
            )

        def visit(node: "_Node | _Leaf | None") -> None:
            if node is None or out_of_budget():
                return
            if isinstance(node, _Leaf):
                self._search_stats.leaves_visited += 1
                # One kernel pass over the leaf block.  In budgeted mode
                # the scalar path stopped mid-leaf once the budget ran
                # out; evaluating only the affordable prefix keeps the
                # accounting (and the candidate set) identical to it.
                count = len(node.ids)
                if budget is not None:
                    count = min(
                        count, budget - self._search_stats.distance_computations
                    )
                    if count <= 0:
                        return
                distances = self._dist_batch(query, node.vectors[:count]).tolist()
                for item_id, d in zip(node.ids, distances):
                    offer(item_id, d)
                return

            self._search_stats.nodes_visited += 1
            d = self._dist(query, node.pivot_vector)
            offer(node.pivot_id, d)

            # Explore the child whose interval is nearer to d first, so tau
            # shrinks before the other child is tested.
            children = [
                (node.inside, node.in_low, node.in_high),
                (node.outside, node.out_low, node.out_high),
            ]
            children.sort(key=lambda c: _interval_gap(d, c[1], c[2]))
            for child, low, high in children:
                if child is None:
                    continue
                if _interval_gap(d, low, high) <= tau() * shrink:
                    visit(child)
                else:
                    self._search_stats.nodes_pruned += 1

        visit(self._root)
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap]

    # ------------------------------------------------------------------
    # Shared batched traversals
    # ------------------------------------------------------------------
    # Both entry points walk the tree once for the whole query batch: a
    # node's pivot is evaluated against every still-active query in one
    # ``distance_batch`` call (operand order flipped — the metric axiom
    # d(p, q) == d(q, p) holds bitwise for all shipped kernels), and each
    # query keeps its own counters, candidate heap, and prune decisions.
    # Per query, nodes are visited in exactly the scalar order, so the
    # branch-and-bound state — and with it every counted distance — is
    # identical to running the queries one at a time.

    def _range_search_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[Neighbor]]:
        m = queries.shape[0]
        results: list[list[Neighbor]] = [[] for _ in range(m)]
        stats = [SearchStats() for _ in range(m)]

        def visit(node: "_Node | _Leaf | None", rows: list[int]) -> None:
            if node is None or not rows:
                return
            if isinstance(node, _Leaf):
                for qi in rows:
                    st = stats[qi]
                    st.leaves_visited += 1
                    st.distance_computations += node.vectors.shape[0]
                    distances = self._metric.distance_batch(
                        queries[qi], node.vectors
                    )
                    for row in np.flatnonzero(distances <= radius):
                        results[qi].append(
                            Neighbor(node.ids[row], float(distances[row]))
                        )
                return

            pivot_distances = self._metric.distance_batch(
                node.pivot_vector, queries[rows]
            ).tolist()
            inside_rows: list[int] = []
            outside_rows: list[int] = []
            for qi, d in zip(rows, pivot_distances):
                st = stats[qi]
                st.nodes_visited += 1
                st.distance_computations += 1
                if d <= radius:
                    results[qi].append(Neighbor(node.pivot_id, d))
                if node.inside is not None:
                    if d - radius <= node.in_high and d + radius >= node.in_low:
                        inside_rows.append(qi)
                    else:
                        st.nodes_pruned += 1
                if node.outside is not None:
                    if d - radius <= node.out_high and d + radius >= node.out_low:
                        outside_rows.append(qi)
                    else:
                        st.nodes_pruned += 1
            visit(node.inside, inside_rows)
            visit(node.outside, outside_rows)

        visit(self._root, list(range(m)))
        return self._finish_batch(results, stats)

    def _knn_search_batch(self, queries: np.ndarray, k: int) -> list[list[Neighbor]]:
        m = queries.shape[0]
        stats = [SearchStats() for _ in range(m)]
        heaps: list[list[tuple[float, int]]] = [[] for _ in range(m)]

        def tau(qi: int) -> float:
            heap = heaps[qi]
            return -heap[0][0] if len(heap) == k else np.inf

        def offer(qi: int, item_id: int, d: float) -> None:
            heap = heaps[qi]
            entry = (-d, -item_id)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

        def visit(node: "_Node | _Leaf | None", rows: list[int]) -> None:
            if node is None or not rows:
                return
            if isinstance(node, _Leaf):
                for qi in rows:
                    st = stats[qi]
                    st.leaves_visited += 1
                    st.distance_computations += node.vectors.shape[0]
                    distances = self._metric.distance_batch(
                        queries[qi], node.vectors
                    ).tolist()
                    for item_id, d in zip(node.ids, distances):
                        offer(qi, item_id, d)
                return

            pivot_distances = self._metric.distance_batch(
                node.pivot_vector, queries[rows]
            ).tolist()
            gaps: dict[int, tuple[float, float]] = {}
            # Cohorts by preferred first child; the scalar path's stable
            # sort explores 'inside' first on equal gaps.
            inside_first: list[int] = []
            outside_first: list[int] = []
            for qi, d in zip(rows, pivot_distances):
                st = stats[qi]
                st.nodes_visited += 1
                st.distance_computations += 1
                offer(qi, node.pivot_id, d)
                gap_in = _interval_gap(d, node.in_low, node.in_high)
                gap_out = _interval_gap(d, node.out_low, node.out_high)
                gaps[qi] = (gap_in, gap_out)
                (inside_first if gap_in <= gap_out else outside_first).append(qi)

            children = ((node.inside, 0), (node.outside, 1))
            for cohort, order in (
                (inside_first, children),
                (outside_first, children[::-1]),
            ):
                if not cohort:
                    continue
                # The second child's prune test runs after the first
                # child's subtree has shrunk tau, exactly as in the
                # scalar branch-and-bound.
                for child, gap_index in order:
                    if child is None:
                        continue
                    survivors: list[int] = []
                    for qi in cohort:
                        if gaps[qi][gap_index] <= tau(qi):
                            survivors.append(qi)
                        else:
                            stats[qi].nodes_pruned += 1
                    visit(child, survivors)

        visit(self._root, list(range(m)))
        results = [
            [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap] for heap in heaps
        ]
        return self._finish_batch(results, stats)


def _interval_gap(d: float, low: float, high: float) -> float:
    """Lower bound on the query-to-item distance for a child subset.

    The child's items lie at distances in ``[low, high]`` from the pivot;
    the query is at distance ``d``.  By the triangle inequality no item
    can be closer to the query than ``max(low - d, d - high, 0)``.
    """
    return max(low - d, d - high, 0.0)
