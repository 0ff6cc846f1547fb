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
is the natural branch-and-bound extension: a child's bound is the
strongest any split point's interval gives, ``max over i of
(low[i, j] - d_i, d_i - high[i, j])`` (negative for a child whose every
interval holds the query).

Layout.  A struct of arrays, as in :mod:`repro.index.vptree`.  One
contiguous ``(n, d)`` block holds every row in depth-first pre-order: a
node's *m* split points (in selection order), then child subtree 0,
child subtree 1, ... — so every node, and every leaf bucket, is a
``[start, stop)`` row range of that block and a node's split points are
its first *m* rows.  Per-node arrays indexed by the node's pre-order
number hold the range and the node's row in the inner-node tables
(``_inner_of``; ``-1`` = a leaf); those tables stack every inner node's
child numbers (``_children``, ``(n_inner, m)``, ``-1`` = empty bucket)
and its two range tables (``_low`` / ``_high``, ``(n_inner, m, m)``).
The build partitions the block in place with an explicit stack, so a
collection of identical rows — every item in split point 0's bucket,
depth n/m — is an ordinary input.

Traversal.  Range and k-NN search are :class:`MetricIndex`'s round
engine (``index/base.py``); the tree supplies its two hooks.  A node's
rows are its *m* split points or its leaf bucket.  A k-NN round
evaluates all *m* split points of every node it takes in its one call
(each seeds candidates and sharpens every child's bound); a range
level evaluates split point *j* of every live node in stage *j*,
because an earlier split point's distance can kill a later one's child
— and with it the split point — before it is evaluated, so a range
query costs at most degree × (depth + 1) calls.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexingError
from repro.index.base import (
    _ROUNDING_SLACK,
    MetricIndex,
    check_count,
    node_table,
    reorder_rows,
)
from repro.index.pivot import DistanceBatchFn
from repro.metrics.base import Metric

__all__ = ["GNAT", "greedy_maxmin_rows"]


def greedy_maxmin_rows(
    vectors: np.ndarray,
    count: int,
    dist_batch: DistanceBatchFn,
    rng: np.random.Generator,
) -> list[int]:
    """Pick ``count`` well-spread row indices by greedy max-min selection.

    The first row is random; each subsequent row maximizes its minimum
    distance to the rows already picked.  Costs ``count * n`` distance
    evaluations, one pass of the caller's counted ``dist_batch`` per
    sweep.
    """
    n = vectors.shape[0]
    if count > n:
        raise IndexingError(f"cannot pick {count} split points from {n} items")

    def sweep(anchor_row: int) -> np.ndarray:
        return dist_batch(vectors[anchor_row], vectors)

    first = int(rng.integers(n))
    chosen = [first]
    min_dist = sweep(first)
    while len(chosen) < count:
        candidate = int(np.argmax(min_dist))
        if min_dist[candidate] == 0.0 and n > len(chosen):
            # All remaining points coincide with chosen ones; any row not
            # yet chosen keeps the selection well-defined.
            candidate = next(row for row in range(n) if row not in chosen)
        chosen.append(candidate)
        min_dist = np.minimum(min_dist, sweep(candidate))
    return chosen


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
        self._degree = check_count("degree", degree, 2)
        self._leaf_size = check_count(
            "leaf_size", self._degree if leaf_size is None else leaf_size, self._degree
        )
        self._seed = seed
        # The flat tree (see the module docstring): one entry per node
        # in pre-order, over the base class's rows and ids in tree order.
        self._start = self._stop = self._inner_of = np.empty(0, dtype=np.int64)
        self._node_rows = np.empty((0, 3), dtype=np.int64)
        self._children = np.empty((0, self._degree), dtype=np.int64)
        #: ``_low[t, i, j]`` / ``_high[t, i, j]``: distance interval from
        #: split point i of inner node t to everything stored under its
        #: child j (split point j included).
        self._low = self._high = np.empty((0, self._degree, self._degree))

    @property
    def degree(self) -> int:
        """Split points per internal node."""
        return self._degree

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        stats = self._build_stats
        m = self._degree  # leaf_size >= degree: every inner node has m splits
        # Permuted in place into tree order below.
        rows, tree_ids = vectors, ids
        start_of: list[int] = []
        stop_of: list[int] = []
        inner_of: list[int] = []
        children: list[list[int]] = []
        low_of: list[np.ndarray] = []
        high_of: list[np.ndarray] = []

        # (start, stop, depth, parent, slot in the parent's child list);
        # child 0 is pushed last so nodes are numbered — and the rng is
        # consumed — in depth-first pre-order.
        stack = [(0, rows.shape[0], 0, -1, 0)]
        while stack:
            start, stop, depth, parent, slot = stack.pop()
            node = len(start_of)
            if parent >= 0:
                children[inner_of[parent]][slot] = node
            start_of.append(start)
            stop_of.append(stop)
            inner_of.append(-1)
            stats.depth = max(stats.depth, depth)
            if stop - start <= self._leaf_size:
                stats.n_leaves += 1
                continue
            stats.n_nodes += 1

            block, block_ids = rows[start:stop], tree_ids[start:stop]
            split_rows = greedy_maxmin_rows(block, m, self._build_dist_batch, rng)
            # Split points to the front in selection order; the rest keep
            # their order.
            order = np.concatenate(
                (split_rows, np.delete(np.arange(stop - start), split_rows))
            )
            reorder_rows(block, order)
            block_ids[:] = block_ids[order]
            splits, rest, rest_ids = block[:m], block[m:], block_ids[m:]

            # Assign every non-split item to its nearest split point,
            # keeping the distances: they seed the range tables for free.
            matrix = np.empty((m, rest.shape[0]))
            for i in range(m):
                matrix[i] = self._build_dist_batch(splits[i], rest)
            owners = np.argmin(matrix, axis=0)
            low = np.full((m, m), np.inf)
            high = np.zeros((m, m))
            for owner in range(m):
                columns = np.flatnonzero(owners == owner)
                if columns.size:
                    low[:, owner] = matrix[:, columns].min(axis=1)
                    high[:, owner] = matrix[:, columns].max(axis=1)
            # Each child's interval must also cover its own split point.
            for i in range(m):
                pair_distances = self._build_dist_batch(splits[i], splits)
                low[i] = np.minimum(low[i], pair_distances)
                high[i] = np.maximum(high[i], pair_distances)
            inner_of[node] = len(children)
            children.append([-1] * m)
            low_of.append(low)
            high_of.append(high)

            # Stable partition of the rest into the m buckets.
            by_owner = np.argsort(owners, kind="stable")
            reorder_rows(rest, by_owner)
            rest_ids[:] = rest_ids[by_owner]
            edges = start + m + np.concatenate(
                ([0], np.cumsum(np.bincount(owners, minlength=m)))
            )
            for owner in reversed(range(m)):
                lo, hi = int(edges[owner]), int(edges[owner + 1])
                if hi > lo:
                    stack.append((lo, hi, depth + 1, node, owner))

        self._inner_of = np.array(inner_of, dtype=np.int64)
        self._node_rows = node_table(start_of, stop_of, self._inner_of >= 0, m)
        self._start, self._stop = self._node_rows[:, 0], np.array(stop_of, dtype=np.int64)
        self._children = np.array(children, dtype=np.int64).reshape(-1, m)
        self._low = np.array(low_of).reshape(-1, m, m)
        self._high = np.array(high_of).reshape(-1, m, m)

    # ------------------------------------------------------------------
    # The round hooks (the traversals are MetricIndex's)
    # ------------------------------------------------------------------
    def _child_bounds(
        self, query: np.ndarray, parents: np.ndarray, d: np.ndarray, column: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Child j lies no closer than a split point i's interval allows,
        ``max(low[i, j] - d_i, d_i - high[i, j])`` less its rounding
        allowance: the strongest over every split point, or in a range
        stage split point ``column``'s alone, which does not test its own
        child.  Not floored at 0, so the bound is negative for a child
        whose every interval holds the query, and the descent prefers
        the child it lies deepest inside."""
        tables = self._inner_of[parents]
        if column is None:
            d = d[:, :, None]  # (node, split point i, child j)
            low, high = self._low[tables], self._high[tables]
            gaps = np.maximum(low - d, d - high)
            gaps -= _ROUNDING_SLACK * (d + high)
            bounds = gaps.max(axis=1)
        else:
            low, high = self._low[tables, column], self._high[tables, column]
            bounds = np.maximum(low - d, d - high)
            bounds -= _ROUNDING_SLACK * (d + high)
            bounds[:, column] = -np.inf
        return self._children[tables], bounds, bounds
