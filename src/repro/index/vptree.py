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
of that block.  Eight per-node NumPy arrays, indexed by the node's
pre-order number, hold the range, the two child numbers (``-1`` =
absent; a leaf has neither) and the two child intervals.  The build
partitions the block in place with an explicit stack; there is no
recursion anywhere, so depth is bounded by memory, not by the
interpreter's stack (3 000 identical histograms are an ordinary image
collection).

Traversal.  A query costs kernel *calls* more than distances, so both
traversals are frontier loops: each round gathers the rows of every
node it evaluates — a pivot's one row, a leaf's whole bucket — into
**one** call of the metric's unchecked ``_kernel`` (the rows were
validated at build, the query at the entry point).  The kernels are
row-independent, so a distance is the same bits whichever rows share
its call, and every row handed to the metric is a counted distance.

* Range search is level-synchronous: the radius is fixed, so every
  node of the frontier is evaluated each round and its children are
  tested at once.  Prune decisions, answers and counters are those of
  a depth-first walk; a query costs at most depth + 1 calls.
* k-NN first *descends*, one node per call on a row slice, nearer child
  first (inside on ties), until a leaf leaves ``k`` live candidates
  held — the depth-first walk's first path, so ``tau`` starts as tight
  as the walk's.  Then each round drops the frontier entries whose bound
  exceeds ``reach = tau / (1 + epsilon)`` (a child's bound is the
  larger of its parent's bound and its interval gap), evaluates the
  nearest :data:`_BATCH_FRACTION` of the rest by bound in one call,
  offers the rows within ``tau``, and leaves the farthest entries for
  the next round's test against the tightened ``tau``.  In budgeted mode a
  round's rows are cut to the remaining budget in bound order, a leaf
  keeping its affordable prefix.

Every prune test allows for rounding (``base._ROUNDING_SLACK``): the
bounds are differences of rounded distances, and without the allowance
an item exactly at the radius, or tied at the k-th distance, could be
pruned by an ulp.

The scalar, approximate and batched entry points all run these two
bodies (the batched ones through :meth:`MetricIndex._run_batch`, one
query at a time), so results and cost counters are identical across
entry points by construction.
"""

from __future__ import annotations

import math
import sys
from array import array

import numpy as np

from repro.errors import IndexingError
from repro.index.base import (
    _BUILD_TEMP_BYTES,
    _ROUNDING_SLACK,
    MetricIndex,
    Neighbor,
    check_count,
    offer_candidates,
    reorder_rows,
)
from repro.index.pivot import MaxSpreadPivot, PivotStrategy
from repro.metrics.base import Metric

__all__ = ["VPTree"]

#: Share of the k-NN frontier, nearest bound first, that one round
#: evaluates (at least one entry); the rest is re-tested against the
#: tau the round leaves.  Measured on the ``benchmarks/e2e`` data (d=16,
#: leaf 16, k=10, 100 queries): 1.0 (every surviving entry,
#: level-synchronous) makes 27.9 calls per k-NN at n=200k but costs
#: more distances than the depth-first walk (12 437.9 against 12 403.9;
#: 1 351.7 against 1 349.9 at n=20k); 0.8 makes 51.0 calls for 12 378.6
#: (1 341.4 at n=20k); 0.5 gives the same counts in 83.8 calls.  The
#: curve is in ``docs/indexes.md``.
_BATCH_FRACTION = 0.8


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
        self._inside = self._outside = np.empty(0, dtype=np.int64)
        self._in_low = self._in_high = np.empty(0)
        self._out_low = self._out_high = np.empty(0)

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

        self._start, self._stop, self._inside, self._outside = (
            np.array(column, dtype=np.int64)
            for column in (start_of, stop_of, inside, outside)
        )
        self._in_low, self._in_high, self._out_low, self._out_high = (
            np.array(column, dtype=np.float64)
            for column in (in_low, in_high, out_low, out_high)
        )

    # ------------------------------------------------------------------
    # Evaluating a round
    # ------------------------------------------------------------------
    def _round_rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What evaluating ``nodes`` costs: ``(rows, first, split)`` — the
        block rows of every node in order (a pivot's one row, a leaf's
        bucket), the position of each node's first row among them, and
        which nodes have children."""
        start = self._start[nodes]
        size = self._stop[nodes] - start
        split = size > self._leaf_size  # the build splits exactly these
        width = np.where(split, 1, size)
        first = width.cumsum() - width
        total = int(first[-1] + width[-1])
        if total == nodes.size:  # pivots only (or one-row buckets)
            return start, first, split
        return np.arange(total) + (start - first).repeat(width), first, split

    def _evaluate(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The query's distance to each of the block's ``rows``: one
        kernel call, unless the gathered rows would pass
        :data:`~repro.index.base._BUILD_TEMP_BYTES` (a range ball
        holding most of the collection), then a call per piece."""
        kernel, block = self._metric._kernel, self._vectors
        step = max(1, _BUILD_TEMP_BYTES // (8 * block.shape[1]))
        if rows.size <= step:
            return kernel(query, block[rows])
        return np.concatenate(
            [kernel(query, block[rows[at : at + step]]) for at in range(0, rows.size, step)]
        )

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        ids = self._ids
        in_low, in_high = self._in_low, self._in_high
        out_low, out_high = self._out_low, self._out_high
        result: list[Neighbor] = []
        computed = visited = pruned = leaves = 0

        frontier = np.zeros(1, dtype=np.int64)  # the root
        while frontier.size:
            rows, first, split = self._round_rows(frontier)
            distances = self._evaluate(query, rows)
            computed += rows.size
            hits = (distances <= radius).nonzero()[0]
            if hits.size:
                result += map(Neighbor, ids[rows[hits]].tolist(), distances[hits].tolist())
            parents = frontier[split]
            visited += parents.size
            leaves += frontier.size - parents.size

            # Both children of every pivot are tested now: the radius
            # never changes, so nothing a later round learns could move
            # the decision.
            d = distances[first[split]]
            low, high = d - radius, d + radius
            inside, outside = self._inside[parents], self._outside[parents]
            has_in, has_out = inside >= 0, outside >= 0
            child_high = in_high[parents]
            slack = _ROUNDING_SLACK * (d + child_high)
            keep_in = has_in & (low <= child_high + slack) & (high >= in_low[parents] - slack)
            child_high = out_high[parents]
            slack = _ROUNDING_SLACK * (d + child_high)
            keep_out = has_out & (low <= child_high + slack) & (high >= out_low[parents] - slack)
            frontier = np.concatenate((inside[keep_in], outside[keep_out]))
            pruned += int(np.count_nonzero(has_in) + np.count_nonzero(has_out)) - frontier.size

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
            query, k, lambda query, k: self._knn_impl(query, k, epsilon, budget)
        )

    def _knn_impl(
        self, query: np.ndarray, k: int, epsilon: float, budget: int | None
    ) -> list[Neighbor]:
        rows, ids = self._vectors, self._ids
        start_of, stop_of = self._start, self._stop
        inside_of, outside_of = self._inside, self._outside
        in_low, in_high = self._in_low, self._in_high
        out_low, out_high = self._out_low, self._out_high
        kernel = self._metric._kernel
        shrink = 1.0 / (1.0 + epsilon)
        limit = sys.maxsize if budget is None else budget
        # The k best candidates so far (see offer_candidates); tau is the
        # k-th best distance and an item farther than tau cannot enter
        # the heap, so it is not offered.  reach is tau * shrink.
        heap: list[tuple[float, int]] = []
        live = self.live_mask.bits  # only live items are offered
        tau = reach = np.inf
        computed = visited = pruned = leaves = 0

        # The descent: one node per call, nearer child first (inside on
        # ties), until a leaf leaves k candidates held.  The stack holds
        # (node, lower bound on the distance to anything below it); what
        # is left on it when the descent ends is the rounds' frontier.
        stack: list[tuple[int, float]] = [(0, 0.0)]
        while stack:
            node, bound = stack.pop()
            if bound > reach:
                pruned += 1
                continue
            if computed >= limit:
                stack.clear()
                break
            start = int(start_of[node])
            child_in, child_out = int(inside_of[node]), int(outside_of[node])
            if child_in < 0 and child_out < 0:
                leaves += 1
                # Only the affordable prefix of the bucket is evaluated.
                stop = min(int(stop_of[node]), start + limit - computed)
                computed += stop - start
                distances = kernel(query, rows[start:stop]).tolist()
                if min(distances) <= tau:
                    tau = offer_candidates(
                        heap, k, ids[start:stop].tolist(), distances, live
                    )
                    reach = tau * shrink
                if len(heap) == k:
                    break
                continue
            visited += 1
            computed += 1
            d = kernel(query, rows[start : start + 1]).item()
            if d <= tau:
                tau = offer_candidates(heap, k, (int(ids[start]),), (d,), live)
                reach = tau * shrink
            high_in, high_out = float(in_high[node]), float(out_high[node])
            gap_in = _interval_gap(d, float(in_low[node]), high_in)
            gap_out = _interval_gap(d, float(out_low[node]), high_out)
            nearer, farther = (child_out, gap_out, high_out), (child_in, gap_in, high_in)
            if not gap_out < gap_in:
                nearer, farther = farther, nearer
            for child, gap, high in (farther, nearer):  # the nearer child on top
                if child >= 0:
                    stack.append((child, max(bound, gap - _ROUNDING_SLACK * (d + high))))

        # The rounds: one call each over the frontier's nearest entries.
        nodes = np.array([node for node, _ in stack], dtype=np.int64)
        bounds = np.array([bound for _, bound in stack])
        while nodes.size:
            near = bounds <= reach
            n_near = int(np.count_nonzero(near))
            if n_near < nodes.size:
                pruned += nodes.size - n_near
                nodes, bounds = nodes[near], bounds[near]
                if not n_near:
                    break
            if computed >= limit:
                break
            order = bounds.argsort(kind="stable")
            cut = max(1, int(_BATCH_FRACTION * order.size))
            take, take_bounds = nodes[order[:cut]], bounds[order[:cut]]
            nodes, bounds = nodes[order[cut:]], bounds[order[cut:]]

            node_rows, first, split = self._round_rows(take)
            if node_rows.size > limit - computed:
                # Only the affordable prefix, in bound order; a node is
                # evaluated if its first row is.
                node_rows = node_rows[: limit - computed]
                kept = int(np.searchsorted(first, node_rows.size))
                take, take_bounds = take[:kept], take_bounds[:kept]
                first, split = first[:kept], split[:kept]
            distances = self._evaluate(query, node_rows)
            computed += node_rows.size
            offered = (distances <= tau).nonzero()[0]
            if offered.size:
                tau = offer_candidates(
                    heap, k, ids[node_rows[offered]].tolist(),
                    distances[offered].tolist(), live,
                )
                reach = tau * shrink

            parents = take[split]
            visited += parents.size
            leaves += take.size - parents.size
            if not parents.size:
                continue
            # Absent children are dropped.
            d = distances[first[split]]
            parent_bounds = take_bounds[split]
            kids = np.concatenate((inside_of[parents], outside_of[parents]))
            kid_bounds = np.concatenate([
                _child_bounds(d, low[parents], high[parents], parent_bounds)
                for low, high in ((in_low, in_high), (out_low, out_high))
            ])
            exists = kids >= 0
            nodes = np.concatenate((nodes, kids[exists]))
            bounds = np.concatenate((bounds, kid_bounds[exists]))

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


def _child_bounds(
    d: np.ndarray, low: np.ndarray, high: np.ndarray, parent_bounds: np.ndarray
) -> np.ndarray:
    """The k-NN frontier bound of each child: its :func:`_interval_gap`
    less the rounding allowance, or its parent's bound if larger — the
    k-NN descent's scalar expression, bit for bit."""
    gap = np.maximum(np.maximum(low - d, d - high), 0.0)
    return np.maximum(gap - _ROUNDING_SLACK * (d + high), parent_bounds)
