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

Layout.  A struct of arrays, as in :mod:`repro.index.vptree`.  One
contiguous ``(n, d)`` block holds every row in depth-first order (a
node's left subtree, then its right subtree), so every node — and every
leaf bucket — is a ``[start, stop)`` row range of that block.  Nodes are
numbered so that siblings are adjacent: ``_child[node]`` is the left
child, the right child is the next number, and a leaf has ``-1``.  The
per-node arrays hold the range, the split dimension and value, and the
bounding box of *every* node, leaves included, as two ``(n_nodes, d)``
arrays — both children's boxes are one two-row slice.  The build
partitions the block in place with an explicit stack.

Traversal.  One iterative best-first k-NN loop and one iterative range
loop serve every entry point (the batched ones through
:meth:`MetricIndex._run_batch`).  A visited node evaluates both
children's box bounds in one vectorized computation — elementwise
arithmetic plus a last-axis reduction, so the two-row result equals two
one-row evaluations to the last ulp — and a visited leaf is exactly one
call of the metric's unchecked ``_kernel`` on its row range.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.errors import IndexingError
from repro.index.base import (
    MetricIndex,
    Neighbor,
    check_count,
    offer_candidates,
    reorder_rows,
)
from repro.metrics.base import Metric
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)

__all__ = ["KDTree"]


def _box_norm(metric: Metric) -> Callable[[np.ndarray], np.ndarray] | None:
    """``metric``'s norm of each row of a box-excess matrix, or ``None``.

    Elementwise arithmetic plus last-axis reductions only (the rules the
    metric kernels follow; BLAS-backed ``linalg.norm`` accumulates
    differently for one vector than for a matrix of them), so a row's
    bound does not depend on which rows are evaluated beside it.
    """
    if isinstance(metric, ManhattanDistance):
        return lambda excess: excess.sum(axis=-1)
    if isinstance(metric, EuclideanDistance):
        return lambda excess: np.sqrt((excess * excess).sum(axis=-1))
    if isinstance(metric, ChebyshevDistance):
        return lambda excess: excess.max(axis=-1)
    if isinstance(metric, WeightedEuclideanDistance):
        weights = metric.weights
        return lambda excess: np.sqrt(np.sum(weights * excess * excess, axis=-1))
    if isinstance(metric, MinkowskiDistance):
        p = metric.p
        return lambda excess: np.sum(excess**p, axis=-1) ** (1.0 / p)
    return None


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
        norm = _box_norm(metric)
        if norm is None:
            raise IndexingError(
                f"KDTree requires a Minkowski-family metric; got {metric.name}"
            )
        self._leaf_size = check_count("leaf_size", leaf_size, 1)
        self._box_norm = norm
        # The flat tree (see the module docstring): one entry per node,
        # over the base class's rows and ids in tree order.
        self._start: list[int] = []
        self._stop: list[int] = []
        self._child: list[int] = []
        self._split_dim: list[int] = []
        self._split_value: list[float] = []
        self._box_low = np.empty((0, 0))
        self._box_high = np.empty((0, 0))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        stats = self._build_stats
        # Permuted in place into tree order below.
        rows, tree_ids = vectors, ids
        start_of, stop_of = [0], [rows.shape[0]]
        child, split_dim, split_value = [-1], [-1], [0.0]
        box_low, box_high = [rows.min(axis=0)], [rows.max(axis=0)]

        stack = [(0, 0)]  # (node, depth)
        while stack:
            node, depth = stack.pop()
            stats.depth = max(stats.depth, depth)
            start, stop = start_of[node], stop_of[node]
            block = rows[start:stop]
            left = None
            if stop - start > self._leaf_size:
                spreads = box_high[node] - box_low[node]
                dim = int(np.argmax(spreads))
                if spreads[dim] > 0.0:  # else all points identical
                    column = block[:, dim]
                    value = float(np.median(column))
                    left = column <= value
                    if left.all():
                        # Median equals the maximum (heavy ties): split
                        # strictly below.
                        left = column < value
            if left is None or not left.any():
                stats.n_leaves += 1
                continue
            stats.n_nodes += 1

            # Stable partition: left rows, then right rows.
            order = np.argsort(~left, kind="stable")
            reorder_rows(block, order)
            tree_ids[start:stop] = tree_ids[start:stop][order]
            middle = start + int(np.count_nonzero(left))
            first = len(start_of)
            child[node], split_dim[node], split_value[node] = first, dim, value
            for lo, hi in ((start, middle), (middle, stop)):
                start_of.append(lo)
                stop_of.append(hi)
                child.append(-1)
                split_dim.append(-1)
                split_value.append(0.0)
                box_low.append(rows[lo:hi].min(axis=0))
                box_high.append(rows[lo:hi].max(axis=0))
            stack.append((first + 1, depth + 1))
            stack.append((first, depth + 1))

        self._start, self._stop, self._child = start_of, stop_of, child
        self._split_dim, self._split_value = split_dim, split_value
        self._box_low, self._box_high = np.array(box_low), np.array(box_high)

    def _child_bounds(self, query: np.ndarray, first: int) -> list[float]:
        """Box lower bounds of nodes ``first`` and ``first + 1`` (siblings)."""
        pair = slice(first, first + 2)
        excess = np.maximum(
            np.maximum(self._box_low[pair] - query, query - self._box_high[pair]), 0.0
        )
        return self._box_norm(excess).tolist()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        rows, ids = self._vectors, self._ids
        start_of, stop_of, child = self._start, self._stop, self._child
        kernel, bounds_of = self._metric._kernel, self._child_bounds
        result: list[Neighbor] = []
        computed = visited = pruned = leaves = 0

        stack = [0]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            first = child[node]
            if first < 0:
                leaves += 1
                start, stop = start_of[node], stop_of[node]
                computed += stop - start
                distances = kernel(query, rows[start:stop]).tolist()
                if min(distances) <= radius:  # most buckets hold no hit
                    for item_id, d in zip(ids[start:stop].tolist(), distances):
                        if d <= radius:
                            result.append(Neighbor(item_id, d))
                continue
            visited += 1
            bound_left, bound_right = bounds_of(query, first)
            # Right is pushed first so left is walked first.
            if bound_right <= radius:
                push(first + 1)
            else:
                pruned += 1
            if bound_left <= radius:
                push(first)
            else:
                pruned += 1

        self._record(computed, visited, pruned, leaves)
        return result

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        rows, ids = self._vectors, self._ids
        start_of, stop_of, child = self._start, self._stop, self._child
        kernel, bounds_of = self._metric._kernel, self._child_bounds
        heap: list[tuple[float, int]] = []  # see offer_candidates
        live = self.live_mask.bits  # only live items are offered
        tau = np.inf
        computed = visited = pruned = leaves = 0

        # Best-first frontier of (box bound, push number, node): equal
        # bounds pop in push order.  A bound is tested against tau when
        # pushed and again, after tau has shrunk, when popped.
        frontier = [(0.0, 0, 0)]
        pushed = 1
        while frontier:
            bound, _, node = heappop(frontier)
            if bound > tau:
                pruned += 1
                continue
            first = child[node]
            if first < 0:
                leaves += 1
                start, stop = start_of[node], stop_of[node]
                computed += stop - start
                distances = kernel(query, rows[start:stop]).tolist()
                if min(distances) <= tau:  # most buckets offer nothing
                    tau = offer_candidates(
                        heap, k, ids[start:stop].tolist(), distances, live
                    )
                continue
            visited += 1
            for kid, kid_bound in zip((first, first + 1), bounds_of(query, first)):
                if kid_bound <= tau:
                    heappush(frontier, (kid_bound, pushed, kid))
                    pushed += 1
                else:
                    pruned += 1

        self._record(computed, visited, pruned, leaves)
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap]
