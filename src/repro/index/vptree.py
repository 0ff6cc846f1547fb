"""The vantage-point tree — the reproduction's headline index.

Construction:

1. choose a *vantage point* (pivot) from the current item set,
2. compute the distance from the pivot to every remaining item,
3. split at the median distance ``mu``: items with ``d <= mu`` form the
   *inside* subtree, the rest the *outside* subtree,
4. repeat on each side until subsets fit in a leaf bucket.

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

Layout.  The tree is a struct of arrays, not an object graph.  The
index's one ``(n, d)`` row block — the storage backend's, there is no
second copy — holds every row in tree order (depth-first pre-order: a
node's pivot, then its inside subtree, then its outside subtree), so
every node — and every leaf bucket — is a ``[start, stop)`` row range
of that block.  Parallel per-node lists, indexed by the node's
pre-order number, hold the range, the two child numbers (``-1`` = absent;
a leaf has neither) and the two child intervals.  The build partitions
the block in place with an explicit stack; there is no recursion
anywhere, so depth is bounded by memory, not by the interpreter's stack
(3 000 identical histograms are an ordinary image collection).

Traversal.  There is one iterative k-NN loop and one iterative range
loop; the scalar, approximate and batched entry points all run them (the
batched ones through :meth:`MetricIndex._run_batch`, one query at a
time), so results and cost counters are identical across entry points by
construction.  Every visited node or leaf costs exactly one call of the
metric's unchecked ``_kernel`` on a row slice of the block (the rows were
validated at build, the query at the entry point), and every row handed
to the metric is a counted distance — a leaf is truncated to
the remaining budget in budgeted mode, and nothing is evaluated ahead of
its prune decision.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import IndexingError
from repro.index.base import (
    MetricIndex,
    Neighbor,
    check_count,
    offer_candidates,
    reorder_rows,
)
from repro.index.pivot import MaxSpreadPivot, PivotStrategy
from repro.index.stats import SearchStats
from repro.metrics.base import Metric

__all__ = ["VPTree"]


class VPTree(MetricIndex):
    """Vantage-point tree over an arbitrary metric.

    Parameters
    ----------
    metric:
        Any true metric (the triangle inequality is load-bearing).
    leaf_size:
        Maximum items per leaf bucket (default 16).  Every visited node
        and every leaf costs one kernel call, and the call, not the
        distance, is most of a query's time: on the clustered
        ``benchmarks/e2e`` data at n=200k, 16 instead of 8 halves the
        calls per k-NN for 0.35 % more distances.  16 is the largest
        power of two under which every paper figure's count claim at
        N <= 4 096 still holds (``docs/indexes.md``).
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
        leaf_size: int = 16,
        pivot_strategy: PivotStrategy | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        self._leaf_size = check_count("leaf_size", leaf_size, 1)
        self._pivot_strategy = pivot_strategy or MaxSpreadPivot()
        self._seed = seed
        # The flat tree (see the module docstring): one entry per node
        # in pre-order, over the base class's rows and ids in tree order.
        self._start: list[int] = []
        self._stop: list[int] = []
        self._inside: list[int] = []
        self._outside: list[int] = []
        self._in_low: list[float] = []
        self._in_high: list[float] = []
        self._out_low: list[float] = []
        self._out_high: list[float] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        stats = self._build_stats
        # Permuted in place into tree order below.
        rows, tree_ids = vectors, ids
        start_of: list[int] = []
        stop_of: list[int] = []
        inside: list[int] = []
        outside: list[int] = []
        in_low: list[float] = []
        in_high: list[float] = []
        out_low: list[float] = []
        out_high: list[float] = []

        # (start, stop, depth, parent, parent's child list); the inside
        # child is pushed last so nodes are numbered — and the pivot
        # strategy consumes the rng — in depth-first pre-order.
        stack: list[tuple[int, int, int, int, list[int]]] = [
            (0, rows.shape[0], 0, -1, inside)
        ]
        while stack:
            start, stop, depth, parent, side = stack.pop()
            node = len(start_of)
            if parent >= 0:
                side[parent] = node
            start_of.append(start)
            stop_of.append(stop)
            inside.append(-1)
            outside.append(-1)
            in_low.append(0.0)
            in_high.append(0.0)
            out_low.append(0.0)
            out_high.append(0.0)
            stats.depth = max(stats.depth, depth)
            if stop - start <= self._leaf_size:
                stats.n_leaves += 1
                continue
            stats.n_nodes += 1

            block = rows[start:stop]
            pivot_row = self._pivot_strategy.select(block, self._build_dist_batch, rng)
            # Slice copies, not a gather: the pivot moves to the front of
            # its range and the rest keep their order.
            block_ids = tree_ids[start:stop]
            _rotate_to_front(block, pivot_row)
            _rotate_to_front(block_ids, pivot_row)
            distances = self._build_dist_batch(block[0], block[1:])

            # Stable partition at the median: inside rows, then outside
            # rows.  A degenerate split (every item at the same distance)
            # leaves one side empty, and that child absent.
            is_inside = distances <= _median(distances)
            order = np.argsort(~is_inside, kind="stable")
            reorder_rows(block[1:], order)
            block_ids[1:] = block_ids[1:][order]
            inside_d, outside_d = distances[is_inside], distances[~is_inside]
            split = start + 1 + inside_d.size
            if outside_d.size:
                out_low[node] = float(outside_d.min())
                out_high[node] = float(outside_d.max())
                stack.append((split, stop, depth + 1, node, outside))
            if inside_d.size:
                in_low[node] = float(inside_d.min())
                in_high[node] = float(inside_d.max())
                stack.append((start + 1, split, depth + 1, node, inside))

        self._start, self._stop = start_of, stop_of
        self._inside, self._outside = inside, outside
        self._in_low, self._in_high = in_low, in_high
        self._out_low, self._out_high = out_low, out_high

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        rows, ids = self._vectors, self._ids
        start_of, stop_of = self._start, self._stop
        inside, outside = self._inside, self._outside
        in_low, in_high = self._in_low, self._in_high
        out_low, out_high = self._out_low, self._out_high
        kernel = self._metric._kernel
        result: list[Neighbor] = []
        computed = visited = pruned = leaves = 0

        stack = [0]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            start = start_of[node]
            child_in, child_out = inside[node], outside[node]
            if child_in < 0 and child_out < 0:
                leaves += 1
                stop = stop_of[node]
                computed += stop - start
                distances = kernel(query, rows[start:stop]).tolist()
                if min(distances) <= radius:  # most buckets hold no hit
                    for item_id, d in zip(ids[start:stop].tolist(), distances):
                        if d <= radius:
                            result.append(Neighbor(item_id, d))
                continue

            visited += 1
            computed += 1
            d = kernel(query, rows[start : start + 1]).item()
            if d <= radius:
                result.append(Neighbor(int(ids[start]), d))
            # Outside is pushed first so inside is walked first.
            low, high = d - radius, d + radius
            if child_out >= 0:
                if low <= out_high[node] and high >= out_low[node]:
                    push(child_out)
                else:
                    pruned += 1
            if child_in >= 0:
                if low <= in_high[node] and high >= in_low[node]:
                    push(child_in)
                else:
                    pruned += 1

        self._record(computed, visited, pruned, leaves)
        return result

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
            an item closer than ``tau / (1 + epsilon)``.  ``0`` is exact;
            must be finite.
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
        # NaN fails every comparison, so test for the accepted range.
        if not 0.0 <= epsilon < np.inf:
            raise IndexingError(
                f"epsilon must be finite and non-negative; got {epsilon}"
            )
        if max_distance_computations is not None and max_distance_computations < 1:
            raise IndexingError("max_distance_computations must be >= 1")
        self._search_stats = SearchStats()
        self._batch_stats = []
        budget = max_distance_computations  # the pending scan stays unbudgeted
        return self._knn_one(
            query, int(k), lambda query, k: self._knn_impl(query, k, epsilon, budget)
        )

    def _knn_impl(
        self, query: np.ndarray, k: int, epsilon: float, budget: int | None
    ) -> list[Neighbor]:
        rows, ids = self._vectors, self._ids
        start_of, stop_of = self._start, self._stop
        inside, outside = self._inside, self._outside
        in_low, in_high = self._in_low, self._in_high
        out_low, out_high = self._out_low, self._out_high
        kernel = self._metric._kernel
        shrink = 1.0 / (1.0 + epsilon)
        limit = sys.maxsize if budget is None else budget  # int compares
        # The k best candidates so far (see offer_candidates); tau is the
        # k-th best distance and an item farther than tau cannot enter
        # the heap, so it is not offered.  reach is tau * shrink.
        heap: list[tuple[float, int]] = []
        live = self.live_mask.bits  # only live items are offered
        tau = reach = np.inf
        computed = visited = pruned = leaves = 0

        # (node, lower bound on the distance to anything below it).  The
        # bound is tested when the node is popped — for the farther child
        # that is after the nearer subtree has shrunk tau.
        stack: list[tuple[int, float]] = [(0, 0.0)]
        pop, push = stack.pop, stack.append
        while stack:
            node, gap = pop()
            if gap > reach:
                pruned += 1
                continue
            if computed >= limit:
                continue
            start = start_of[node]
            child_in, child_out = inside[node], outside[node]
            if child_in < 0 and child_out < 0:
                leaves += 1
                # Only the affordable prefix of the bucket is evaluated.
                stop = stop_of[node]
                if stop - start > limit - computed:
                    stop = start + limit - computed
                computed += stop - start
                distances = kernel(query, rows[start:stop]).tolist()
                if min(distances) <= tau:  # most buckets offer nothing
                    tau = offer_candidates(
                        heap, k, ids[start:stop].tolist(), distances, live
                    )
                    reach = tau * shrink
                continue

            visited += 1
            computed += 1
            d = kernel(query, rows[start : start + 1]).item()
            if d <= tau:
                tau = offer_candidates(heap, k, (int(ids[start]),), (d,), live)
                reach = tau * shrink
            # _interval_gap inline: low <= high, so only one side can be > 0.
            gap_in = in_low[node] - d
            if gap_in < 0.0:
                gap_in = d - in_high[node]
                if gap_in < 0.0:
                    gap_in = 0.0
            gap_out = out_low[node] - d
            if gap_out < 0.0:
                gap_out = d - out_high[node]
                if gap_out < 0.0:
                    gap_out = 0.0
            # The child whose interval is nearer to d goes on top of the
            # stack (inside on ties), so tau shrinks before the other
            # child's bound is tested.
            if gap_out < gap_in:
                if child_in >= 0:
                    push((child_in, gap_in))
                if child_out >= 0:
                    push((child_out, gap_out))
            else:
                if child_out >= 0:
                    push((child_out, gap_out))
                if child_in >= 0:
                    push((child_in, gap_in))

        self._record(computed, visited, pruned, leaves)
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap]


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a non-empty 1-D array, bit for bit,
    without ``np.median``'s axis/NaN machinery (one call per built node)."""
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    part = np.partition(values, (half - 1, half))
    return float((part[half - 1] + part[half]) / 2.0)


def _rotate_to_front(array: np.ndarray, row: int) -> None:
    """Move ``array[row]`` to index 0 in place; the others keep their order."""
    if row:
        moved = array[row].copy()
        array[1 : row + 1] = array[:row].copy()
        array[0] = moved


def _interval_gap(d: float, low: float, high: float) -> float:
    """Lower bound on the query-to-item distance for a child subset.

    The child's items lie at distances in ``[low, high]`` from the pivot;
    the query is at distance ``d``.  By the triangle inequality no item
    can be closer to the query than ``max(low - d, d - high, 0)``.
    """
    return max(low - d, d - high, 0.0)
