"""The Antipole tree: bounded-radius clustering via approximate farthest pairs.

Construction follows Cantone, Ferro, Pulvirenti, Reforgiato & Shasha
("Antipole Tree Indexing to Support Range Search and K-Nearest-Neighbor
Search in Metric Spaces", TKDE 2005), the algorithm the reproduced
pipeline adopts for its index:

* an **approximate 1-median** of a set is found by a *tournament*: random
  groups of ``tau`` elements each elect their exact 1-median into the
  next round, until few enough remain for an exact computation — linear
  time overall;
* an **approximate antipole pair** (farthest pair) runs the complementary
  tournament: each group *discards* its 1-median and keeps the rest, and
  the final round returns the exact farthest pair of the survivors;
* the tree splits a set by its antipole pair ``(A, B)`` whenever the
  approximate diameter ``dist(A, B)`` exceeds the **cluster diameter
  threshold**; each remaining point joins the closer endpoint's side.
  Otherwise the set becomes a **leaf cluster** annotated with its
  approximate 1-median (centroid), its radius, and each member's cached
  distance to the centroid.

Search uses the triangle inequality in *both* directions, as the paper
emphasizes: subtrees and whole clusters are **excluded** when
``dist(q, anchor) - radius > t``, and members are **included** without a
fresh distance computation when ``dist(q, centroid) + cached <= t``
(exploited by :meth:`AntipoleTree.range_search_ids`; the exact variant
still evaluates the metric so it can report true distances, and records
how many evaluations the inclusion rule would have saved).

Layout.  A struct of arrays, as in :mod:`repro.index.vptree`.  One
contiguous ``(n, d)`` block holds every row in depth-first pre-order: a
split node's endpoints ``A`` and ``B`` (adjacent, so both are one kernel
call), then the A-side subtree, then the B-side subtree; a cluster's
centroid, then its members.  Every node is a ``[start, stop)`` row range
of that block, and ``_cached[row]`` is a member's distance to its
cluster's centroid, aligned to the rows.  Per-node lists indexed by the
node's pre-order number hold the range, the cluster flag and radius, and
a split's two child numbers (``-1`` = the endpoint attracted no other
point) and subtree radii.  The build partitions the block in place with
an explicit stack.

Traversal.  One iterative best-first k-NN loop and one iterative range
loop serve every entry point (the batched ones through
:meth:`MetricIndex._run_batch`; :meth:`AntipoleTree.range_search_ids` is
a flag on the range loop).  Every distance is a call of the metric's
unchecked ``_kernel`` on rows of the block and is counted; nothing is
evaluated ahead of its prune decision.  A range cluster scan knows its
survivors up front (the bounds are arithmetic on ``_cached``) and
evaluates them in one call; a k-NN cluster scan evaluates member by
member, because the k-th best distance shrinks as members of the same
cluster are offered and the cached-distance exclusion can then spare
later members entirely.
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

__all__ = ["AntipoleTree"]


def _exact_1_median_row(
    vectors: np.ndarray, rows: list[int], dist_batch: DistanceBatchFn
) -> int:
    """Row (from ``rows``) minimizing the sum of distances to the others.

    Each candidate's distances are one batched evaluation; the sum is
    accumulated left to right so it is bit-identical to the scalar-era
    running total (the winner must not shift by an ulp of reordering).
    """
    block = vectors[rows]
    best_row = rows[0]
    best_sum = np.inf
    for position, candidate in enumerate(rows):
        others = np.delete(block, position, axis=0)
        total = 0.0
        for d in dist_batch(vectors[candidate], others).tolist():
            total += d
        if total < best_sum:
            best_sum = total
            best_row = candidate
    return best_row


class AntipoleTree(MetricIndex):
    """Antipole clustering tree supporting exact range and k-NN search.

    Parameters
    ----------
    metric:
        Any true metric.
    diameter_threshold:
        Cluster diameter bound: sets whose approximate diameter is at most
        this value become leaf clusters.  ``None`` (default) derives it at
        build time as ``diameter_fraction`` of the root set's approximate
        diameter.
    diameter_fraction:
        Used only when ``diameter_threshold`` is None (default 0.3).
    tournament_size:
        Group size ``tau`` of the median/antipole tournaments (default 3,
        the value for which the paper's fast and accurate variants
        coincide).
    final_round_size:
        Tournament population at which the exact computation takes over.
    seed:
        Seed for the tournament's random partitioning.
    """

    def __init__(
        self,
        metric: Metric,
        *,
        diameter_threshold: float | None = None,
        diameter_fraction: float = 0.3,
        tournament_size: int = 3,
        final_round_size: int = 9,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        if diameter_threshold is not None and diameter_threshold < 0.0:
            raise IndexingError(
                f"diameter_threshold must be non-negative; got {diameter_threshold}"
            )
        if not 0.0 < diameter_fraction < 1.0:
            raise IndexingError(
                f"diameter_fraction must lie in (0, 1); got {diameter_fraction}"
            )
        self._diameter_threshold = diameter_threshold
        self._diameter_fraction = diameter_fraction
        self._tau = check_count("tournament_size", tournament_size, 2)
        self._final_round = check_count("final_round_size", final_round_size, self._tau)
        self._seed = seed
        self._effective_threshold: float | None = None
        # The flat tree (see the module docstring): cached centroid
        # distances aligned to the base class's rows and ids in tree
        # order, then one entry per node in pre-order.
        self._cached = np.empty(0)
        self._start: list[int] = []
        self._stop: list[int] = []
        self._is_cluster: list[bool] = []
        self._radius: list[float] = []  # cluster radius around its centroid
        self._a_child: list[int] = []
        self._b_child: list[int] = []
        #: max dist(A, x) over the A-side subtree's items (likewise B);
        #: the endpoints themselves live at the node.
        self._a_radius: list[float] = []
        self._b_radius: list[float] = []

    @property
    def effective_diameter_threshold(self) -> float:
        """The threshold actually used (resolved at build time)."""
        if self._effective_threshold is None:
            raise IndexingError("index has not been built yet")
        return self._effective_threshold

    # ------------------------------------------------------------------
    # Tournaments (over all rows of ``vectors``; they return row numbers)
    # ------------------------------------------------------------------
    def _approx_1_median(self, vectors: np.ndarray, rng: np.random.Generator) -> int:
        """APPROX_1_MEDIAN: tournament of exact group medians."""
        current = list(range(vectors.shape[0]))
        while len(current) > self._final_round:
            rng.shuffle(current)
            winners: list[int] = []
            position = 0
            while len(current) - position >= 2 * self._tau:
                group = current[position : position + self._tau]
                position += self._tau
                winners.append(
                    _exact_1_median_row(vectors, group, self._build_dist_batch)
                )
            leftover = current[position:]
            winners.append(
                _exact_1_median_row(vectors, leftover, self._build_dist_batch)
            )
            current = winners
        return _exact_1_median_row(vectors, current, self._build_dist_batch)

    def _approx_antipole(
        self, vectors: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, int, float]:
        """APPROX_ANTIPOLE: discard group medians, then exact farthest pair."""
        if vectors.shape[0] < 2:
            raise IndexingError("antipole needs at least two items")
        current = list(range(vectors.shape[0]))
        while len(current) > self._final_round:
            rng.shuffle(current)
            survivors: list[int] = []
            position = 0
            while len(current) - position >= 2 * self._tau:
                group = current[position : position + self._tau]
                position += self._tau
                median = _exact_1_median_row(vectors, group, self._build_dist_batch)
                survivors.extend(row for row in group if row != median)
            leftover = current[position:]
            if len(leftover) >= 2:
                median = _exact_1_median_row(vectors, leftover, self._build_dist_batch)
                survivors.extend(row for row in leftover if row != median)
            else:
                survivors.extend(leftover)
            if len(survivors) < 2:  # pathological tiny input
                survivors = current
                break
            current = survivors

        # Exact farthest pair of the survivors: one batched sweep per
        # anchor covers its combinations (same pairs, same order).
        best = (current[0], current[1], -1.0)
        for position, row_a in enumerate(current[:-1]):
            later = current[position + 1 :]
            distances = self._build_dist_batch(
                vectors[row_a], vectors[later]
            ).tolist()
            for row_b, d in zip(later, distances):
                if d > best[2]:
                    best = (row_a, row_b, d)
        return best

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        rng = np.random.default_rng(self._seed)
        stats = self._build_stats
        # Permuted in place into tree order below.
        rows, tree_ids = vectors, ids
        cached = np.zeros(rows.shape[0])

        if self._diameter_threshold is not None:
            threshold = self._diameter_threshold
        elif rows.shape[0] >= 2:
            # Derive the threshold from the root set's approximate diameter.
            threshold = self._diameter_fraction * self._approx_antipole(rows, rng)[2]
        else:
            threshold = 0.0
        self._effective_threshold = threshold

        start_of: list[int] = []
        stop_of: list[int] = []
        is_cluster: list[bool] = []
        radius: list[float] = []
        a_child: list[int] = []
        b_child: list[int] = []
        a_radius: list[float] = []
        b_radius: list[float] = []

        # (start, stop, depth, parent, parent's child list); the A side
        # is pushed last so nodes are numbered — and the tournaments
        # consume the rng — in depth-first pre-order.
        stack = [(0, rows.shape[0], 0, -1, a_child)]
        while stack:
            start, stop, depth, parent, side = stack.pop()
            node = len(start_of)
            if parent >= 0:
                side[parent] = node
            start_of.append(start)
            stop_of.append(stop)
            is_cluster.append(False)
            radius.append(0.0)
            a_child.append(-1)
            b_child.append(-1)
            a_radius.append(0.0)
            b_radius.append(0.0)
            stats.depth = max(stats.depth, depth)

            block, block_ids = rows[start:stop], tree_ids[start:stop]
            size = stop - start
            if size >= 2:
                at_a, at_b, diameter = self._approx_antipole(block, rng)
            if size < 2 or diameter <= threshold:
                # A leaf cluster: the centroid moves to the front, the
                # members keep their order; one sweep caches their
                # centroid distances.
                stats.n_leaves += 1
                is_cluster[node] = True
                centroid = self._approx_1_median(block, rng) if size > 1 else 0
                order = np.concatenate(
                    ([centroid], np.delete(np.arange(size), centroid))
                )
                reorder_rows(block, order)
                block_ids[:] = block_ids[order]
                distances = self._build_dist_batch(block[0], block[1:])
                cached[start + 1 : stop] = distances
                if size > 1:
                    radius[node] = float(distances.max())
                continue

            # The endpoints stay at this node; everything else joins the
            # side of the closer endpoint.  Both endpoint sweeps are
            # batched (the metric's bitwise symmetry makes the flipped
            # operand order safe).
            stats.n_nodes += 1
            rest = np.delete(np.arange(size), (at_a, at_b))
            rest_block = block[rest]
            d_a = self._build_dist_batch(block[at_a], rest_block)
            d_b = self._build_dist_batch(block[at_b], rest_block)
            to_a = d_a <= d_b
            order = np.concatenate(((at_a, at_b), rest[to_a], rest[~to_a]))
            reorder_rows(block, order)
            block_ids[:] = block_ids[order]
            split = start + 2 + int(np.count_nonzero(to_a))
            if split < stop:
                b_radius[node] = float(d_b[~to_a].max())
                stack.append((split, stop, depth + 1, node, b_child))
            if split > start + 2:
                a_radius[node] = float(d_a[to_a].max())
                stack.append((start + 2, split, depth + 1, node, a_child))

        self._cached = cached
        self._start, self._stop = start_of, stop_of
        self._is_cluster, self._radius = is_cluster, radius
        self._a_child, self._b_child = a_child, b_child
        self._a_radius, self._b_radius = a_radius, b_radius

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        return self._range_impl(query, radius, ids_only=False)

    def range_search_ids(self, query: np.ndarray, radius: float) -> list[int]:
        """Range search returning ids only.

        This variant exercises the paper's *inclusion* pruning at full
        strength: members provably inside the ball (``dist(q, centroid) +
        cached <= radius``) are reported without evaluating the metric, so
        it can answer with strictly fewer distance computations than the
        exact-distance variant.
        """
        query = self._check_query(query)
        if not radius >= 0.0:  # NaN fails this too
            raise IndexingError(f"radius must be non-negative; got {radius}")
        self._reset_stats()
        result = self._range_impl(query, float(radius), ids_only=True)
        # Mutation overlay: dead hits drop out; pending items have no
        # cached centroid distance, so they are evaluated (counted).
        result = self._overlay_range(query, float(radius), result)
        return [neighbor.id for neighbor in result]

    def _range_impl(
        self, query: np.ndarray, radius: float, *, ids_only: bool
    ) -> list[Neighbor]:
        rows, ids, cached_of = self._vectors, self._ids, self._cached
        start_of, stop_of = self._start, self._stop
        is_cluster, cluster_radius = self._is_cluster, self._radius
        a_child, b_child = self._a_child, self._b_child
        a_radius, b_radius = self._a_radius, self._b_radius
        kernel = self._metric._kernel
        result: list[Neighbor] = []
        computed = visited = pruned = leaves = included = 0

        stack = [0]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            start = start_of[node]
            if is_cluster[node]:
                leaves += 1
                computed += 1
                d_centroid = kernel(query, rows[start : start + 1]).item()
                if d_centroid <= radius:
                    result.append(Neighbor(int(ids[start]), d_centroid))
                if d_centroid - cluster_radius[node] > radius:
                    continue  # whole cluster provably outside
                # Exclusion and wholesale inclusion are arithmetic on the
                # cached centroid distances, so the members that need a
                # real evaluation are known up front: one kernel call.
                first, stop = start + 1, stop_of[node]
                cached = cached_of[first:stop]
                picks = np.flatnonzero(np.abs(d_centroid - cached) <= radius)
                if not picks.size:
                    continue
                reported = d_centroid + cached[picks]  # upper bounds
                sure = reported <= radius
                included += int(np.count_nonzero(sure))
                # Provably inside: ids-only mode reports those at the
                # bound without evaluating; everything else is evaluated.
                unsure = ~sure if ids_only else slice(None)
                evaluate = picks[unsure]
                if evaluate.size:
                    computed += evaluate.size
                    reported[unsure] = kernel(query, rows[first:stop][evaluate])
                hits = reported <= radius
                for pick, d in zip(picks[hits].tolist(), reported[hits].tolist()):
                    result.append(Neighbor(int(ids[first + pick]), d))
                continue

            visited += 1
            computed += 2
            d_a, d_b = kernel(query, rows[start : start + 2]).tolist()
            if d_a <= radius:
                result.append(Neighbor(int(ids[start]), d_a))
            if d_b <= radius:
                result.append(Neighbor(int(ids[start + 1]), d_b))
            # B is pushed first so the A side is walked first.
            kid = b_child[node]
            if kid >= 0:
                if d_b - b_radius[node] <= radius:
                    push(kid)
                else:
                    pruned += 1
            kid = a_child[node]
            if kid >= 0:
                if d_a - a_radius[node] <= radius:
                    push(kid)
                else:
                    pruned += 1

        self._record(computed, visited, pruned, leaves)
        self._search_stats.items_included_wholesale += included
        return result

    # ------------------------------------------------------------------
    # k-NN search (best-first branch and bound)
    # ------------------------------------------------------------------
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        rows, ids, cached_of = self._vectors, self._ids, self._cached
        start_of, stop_of, is_cluster = self._start, self._stop, self._is_cluster
        a_child, b_child = self._a_child, self._b_child
        a_radius, b_radius = self._a_radius, self._b_radius
        kernel = self._metric._kernel
        heap: list[tuple[float, int]] = []  # see offer_candidates
        live = self.live_mask.bits  # only live items are offered
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
            if is_cluster[node]:
                leaves += 1
                computed += 1
                d_centroid = kernel(query, rows[start : start + 1]).item()
                if d_centroid <= tau:
                    tau = offer_candidates(
                        heap, k, (int(ids[start]),), (d_centroid,), live
                    )
                # Member by member on purpose: tau shrinks as members of
                # this same cluster are offered, so the cached-distance
                # exclusion can spare later members entirely — one call
                # up front would pay for evaluations this loop skips.
                first, stop = start + 1, stop_of[node]
                gaps = np.abs(d_centroid - cached_of[first:stop]).tolist()
                for row, gap in zip(range(first, stop), gaps):
                    if gap > tau:
                        continue  # cached-distance exclusion
                    computed += 1
                    d = kernel(query, rows[row : row + 1]).item()
                    if d <= tau:
                        tau = offer_candidates(heap, k, (int(ids[row]),), (d,), live)
                continue

            visited += 1
            computed += 2
            d_a, d_b = kernel(query, rows[start : start + 2]).tolist()
            if d_a <= tau or d_b <= tau:
                tau = offer_candidates(
                    heap, k, ids[start : start + 2].tolist(), (d_a, d_b), live
                )
            for d, reach, kid in (
                (d_a, a_radius[node], a_child[node]),
                (d_b, b_radius[node], b_child[node]),
            ):
                if kid < 0:
                    continue
                kid_bound = max(d - reach, 0.0)
                if kid_bound <= tau:
                    heappush(frontier, (kid_bound, pushed, kid))
                    pushed += 1
                else:
                    pruned += 1

        self._record(computed, visited, pruned, leaves)
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap]
