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
distance of the current k-th best candidate (``tau``) and shrinks as
better candidates surface.

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
of that block.  Five per-node NumPy arrays, indexed by the node's
pre-order number, hold the range, the child numbers (``_child[node]``
is ``(inside, outside)``, ``-1`` = absent; a leaf has neither, and a
split always has an inside child) and their two intervals (``_low`` /
``_high``, one column per child).  The build partitions the block in
place with an explicit stack; there is no recursion anywhere, so depth
is bounded by memory, not by the interpreter's stack (3 000 identical
histograms are an ordinary image collection).

Traversal.  Range and k-NN search are :class:`MetricIndex`'s round
engine (``index/base.py``): frontier rounds, each gathering the rows
of every node it evaluates into one kernel call.  The tree supplies
its two hooks — a node's rows are its pivot or its leaf bucket, and a
child's bound is its interval gap ``max(low - d, d - high, 0)`` from
the pivot distance ``d`` — so a range query costs at most depth + 1
calls and a k-NN query tens.  Every prune test allows for rounding
(``base._ROUNDING_SLACK``): the bounds are differences of rounded
distances, and without the allowance an item exactly at the radius, or
tied at the k-th distance, could be pruned by an ulp.

The scalar, approximate and batched entry points all run these two
bodies (the batched ones through :meth:`MetricIndex._run_batch`, one
query at a time), so results and cost counters are identical across
entry points by construction.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.errors import IndexingError
from repro.index.base import (
    _ROUNDING_SLACK,
    MetricIndex,
    Neighbor,
    check_count,
    node_table,
    reorder_rows,
)
from repro.index.pivot import MaxSpreadPivot, PivotStrategy
from repro.metrics.base import Metric

__all__ = ["VPTree"]


class VPTree(MetricIndex):
    """Vantage-point tree over an arbitrary metric.

    Parameters
    ----------
    metric:
        Any true metric (the triangle inequality is load-bearing).
    leaf_size:
        Maximum items per leaf bucket (default 16).  16 is the largest
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
        self._start = self._stop = np.empty(0, dtype=np.int64)
        self._node_rows = np.empty((0, 3), dtype=np.int64)
        self._child = np.empty((0, 2), dtype=np.int64)
        self._low = self._high = np.empty((0, 2))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        stats = self._build_stats
        # Permuted in place into tree order below.
        rows, tree_ids = vectors, ids
        # Typed columns while the node count grows (8 bytes an entry),
        # NumPy arrays once it is known.
        start_of, stop_of, inside, outside = (array("q") for _ in range(4))
        in_low, in_high, out_low, out_high = (array("d") for _ in range(4))

        # (start, stop, depth, parent, parent's child column); the inside
        # child is pushed last so nodes are numbered — and the pivot
        # strategy consumes the rng — in depth-first pre-order.
        stack: list[tuple[int, int, int, int, array]] = [
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

        self._child = np.column_stack((inside, outside)).astype(np.int64)
        self._low = np.column_stack((in_low, out_low)).astype(np.float64)
        self._high = np.column_stack((in_high, out_high)).astype(np.float64)
        # A split has an inside child, and evaluates its pivot's one row.
        self._node_rows = node_table(start_of, stop_of, self._child[:, 0] >= 0, 1)
        self._start, self._stop = self._node_rows[:, 0], np.array(stop_of, dtype=np.int64)

    # ------------------------------------------------------------------
    # The round hooks (the traversals are MetricIndex's)
    # ------------------------------------------------------------------
    def _child_bounds(
        self, query: np.ndarray, parents: np.ndarray, d: np.ndarray, column: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inside, then outside: each child's interval gap from the pivot
        distance ``d``, ``max(low - d, d - high, 0)``, less its rounding
        allowance; the descent orders the two by the gap itself, so an
        equal gap sends it inside first."""
        low, high = self._low.take(parents, 0), self._high.take(parents, 0)
        gap = np.maximum(low - d, d - high)
        np.maximum(gap, 0.0, out=gap)
        return self._child.take(parents, 0), gap - _ROUNDING_SLACK * (d + high), gap

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
            query, an integer ``>= 1``; when reached, unexpanded
            subtrees are abandoned.  ``None`` means unlimited.  On a
            mutated index the pending buffer is always scanned in full
            regardless — those evaluations are counted in ``last_stats``
            but not charged against the budget, so the total count can
            exceed the cap by up to ``n_pending`` (correctness over the
            live item set is never traded away; see
            ``docs/mutability.md``).
        """
        query = self._check_query(query)
        k = check_count("k", k, 1)
        # NaN fails every comparison, so test for the accepted range.
        if not 0.0 <= epsilon < np.inf:
            raise IndexingError(
                f"epsilon must be finite and non-negative; got {epsilon}"
            )
        budget = max_distance_computations  # the pending scan stays unbudgeted
        if budget is not None:
            budget = check_count("max_distance_computations", budget, 1)
        self._reset_stats()
        return self._knn_one(
            query, k, lambda query, k: self._knn_search(query, k, epsilon, budget)
        )


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
