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

Layout.  A struct of arrays, as in :mod:`repro.index.vptree`.  One
contiguous ``(n, d)`` block holds every row in depth-first pre-order: a
node's *m* split points (in selection order), then child subtree 0,
child subtree 1, ... — so every node, and every leaf bucket, is a
``[start, stop)`` row range of that block and a node's split points are
its first *m* rows.  Per-node lists indexed by the node's pre-order
number hold the range, the child numbers (``-1`` = empty bucket; a leaf
has ``None``) and the two ``(m, m)`` range tables.  The build partitions
the block in place with an explicit stack, so a collection of identical
rows — every item in split point 0's bucket, depth n/m — is an ordinary
input.

Traversal.  One iterative best-first k-NN loop and one iterative range
loop serve every entry point (the batched ones through
:meth:`MetricIndex._run_batch`).  Every distance is a call of the
metric's unchecked ``_kernel`` on a row slice of the block and is
counted: a leaf is one call; a k-NN node visit is one call for all *m*
split points (all are needed — each seeds candidates and sharpens every
child's bound); a range node visit evaluates its split points one call
at a time in index order, because an early distance can kill a later
split point before it is evaluated.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.errors import IndexingError
from repro.index.base import (
    MetricIndex,
    Neighbor,
    check_count,
    offer_candidates,
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
        self._start: list[int] = []
        self._stop: list[int] = []
        self._children: list[list[int] | None] = []
        #: ``low[i, j]`` / ``high[i, j]``: distance interval from split
        #: point i to everything stored under child j (split point j
        #: included); ``None`` for a leaf.
        self._low: list[np.ndarray | None] = []
        self._high: list[np.ndarray | None] = []

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
        children: list[list[int] | None] = []
        low_of: list[np.ndarray | None] = []
        high_of: list[np.ndarray | None] = []

        # (start, stop, depth, parent, slot in the parent's child list);
        # child 0 is pushed last so nodes are numbered — and the rng is
        # consumed — in depth-first pre-order.
        stack = [(0, rows.shape[0], 0, -1, 0)]
        while stack:
            start, stop, depth, parent, slot = stack.pop()
            node = len(start_of)
            if parent >= 0:
                children[parent][slot] = node
            start_of.append(start)
            stop_of.append(stop)
            children.append(None)
            low_of.append(None)
            high_of.append(None)
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
            low_of[node], high_of[node] = low, high

            # Stable partition of the rest into the m buckets.
            by_owner = np.argsort(owners, kind="stable")
            reorder_rows(rest, by_owner)
            rest_ids[:] = rest_ids[by_owner]
            edges = start + m + np.concatenate(
                ([0], np.cumsum(np.bincount(owners, minlength=m)))
            )
            children[node] = [-1] * m
            for owner in reversed(range(m)):
                lo, hi = int(edges[owner]), int(edges[owner + 1])
                if hi > lo:
                    stack.append((lo, hi, depth + 1, node, owner))

        self._start, self._stop, self._children = start_of, stop_of, children
        self._low, self._high = low_of, high_of

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        rows, ids = self._vectors, self._ids
        start_of, stop_of, children = self._start, self._stop, self._children
        low_of, high_of = self._low, self._high
        kernel = self._metric._kernel
        result: list[Neighbor] = []
        computed = visited = pruned = leaves = 0

        stack = [0]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            start = start_of[node]
            kids = children[node]
            if kids is None:
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
            low, high = low_of[node], high_of[node]
            alive = [True] * len(kids)
            for i, row in enumerate(range(start, start + len(kids))):
                if not alive[i]:
                    continue
                computed += 1
                d = kernel(query, rows[row : row + 1]).item()
                if d <= radius:
                    result.append(Neighbor(int(ids[row]), d))
                # One computed distance kills every child whose interval
                # from split point i misses the query annulus.
                inner, outer = d - radius, d + radius
                for j, (live, lo, hi) in enumerate(
                    zip(alive, low[i].tolist(), high[i].tolist())
                ):
                    if live and j != i and (inner > hi or outer < lo):
                        alive[j] = False
                        if kids[j] >= 0:
                            pruned += 1
            # Child 0 is pushed last so children are walked in order.
            for kid, live in zip(reversed(kids), reversed(alive)):
                if live and kid >= 0:
                    push(kid)

        self._record(computed, visited, pruned, leaves)
        return result

    # ------------------------------------------------------------------
    # k-NN search
    # ------------------------------------------------------------------
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        rows, ids = self._vectors, self._ids
        start_of, stop_of, children = self._start, self._stop, self._children
        low_of, high_of = self._low, self._high
        kernel = self._metric._kernel
        heap: list[tuple[float, int]] = []  # see offer_candidates
        tau = np.inf
        computed = visited = pruned = leaves = 0

        # Best-first frontier of (lower bound, push number, node): equal
        # bounds pop in push order.  A bound is tested against tau when
        # pushed and again, after tau has shrunk, when popped.
        frontier = [(0.0, 0, 0)]
        pushed = 1
        while frontier:
            bound, _, node = heappop(frontier)
            if bound > tau:
                pruned += 1
                continue
            start = start_of[node]
            kids = children[node]
            stop = stop_of[node] if kids is None else start + len(kids)
            computed += stop - start
            distances = kernel(query, rows[start:stop])
            if kids is None:
                leaves += 1
                distances = distances.tolist()
                if min(distances) <= tau:  # most buckets offer nothing
                    tau = offer_candidates(heap, k, ids[start:stop].tolist(), distances)
                continue

            visited += 1
            if distances.min() <= tau:
                tau = offer_candidates(
                    heap, k, ids[start:stop].tolist(), distances.tolist()
                )
            # Child j lies no closer than any split point's interval
            # allows: max over i of (low[i, j] - d_i, d_i - high[i, j], 0).
            d = distances[:, None]
            bounds = np.maximum(
                np.maximum(low_of[node] - d, d - high_of[node]).max(axis=0), 0.0
            )
            for kid, kid_bound in zip(kids, bounds.tolist()):
                if kid < 0:
                    continue
                if kid_bound <= tau:
                    heappush(frontier, (kid_bound, pushed, kid))
                    pushed += 1
                else:
                    pruned += 1

        self._record(computed, visited, pruned, leaves)
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap]
