"""Distance browsing: lazy best-first neighbor enumeration.

k-NN search needs ``k`` up front, but the classic CBIR interaction is a
result page the user keeps scrolling — "show me more like this" until
they stop.  Re-running k-NN with growing k repeats all earlier work;
*distance browsing* (Hjaltason & Samet's incremental nearest-neighbor
algorithm) instead yields neighbors one at a time, nearest first,
doing only the work each next result needs.

One priority queue holds both unvisited subtrees (keyed by the lower
bound of anything inside them) and already-measured items (keyed by
their true distance).  When an *item* surfaces at the front, no subtree
can contain anything closer — or equally close with a smaller id — so
it is safe to yield immediately: the stream is in ``(distance, id)``
order, exactly ``knn_search(query, size)``.

:func:`browse` works against any :class:`~repro.index.base.MetricIndex`:
the VP-tree, the GNAT and the k-d tree are browsed lazily through the
round hooks their traversals run on (:attr:`MetricIndex._node_rows`,
:meth:`MetricIndex._child_bounds`); anything else falls back to a
fully-sorted scan (correct, not lazy — the docstring of the fallback
says so loudly).  Either way the mutation overlay applies:
dead rows never surface and live pending rows do.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

import numpy as np

from repro.errors import IndexingError
from repro.index.base import MetricIndex, Neighbor
from repro.index.stats import SearchStats

__all__ = ["browse"]


def browse(index: MetricIndex, query: np.ndarray) -> Iterator[Neighbor]:
    """Yield the index's items nearest-first, lazily where supported.

    For a tree with round hooks (the VP-tree, the GNAT, the k-d tree)
    this is true incremental browsing: consuming the first few results costs only the distance
    computations their proof of rank requires.  For other indexes the
    fallback computes every distance up front and yields from a sorted
    list — same output contract, linear cost.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.index.vptree import VPTree
    >>> from repro.metrics.minkowski import EuclideanDistance
    >>> rng = np.random.default_rng(0)
    >>> tree = VPTree(EuclideanDistance()).build(range(50), rng.random((50, 3)))
    >>> stream = browse(tree, rng.random(3))
    >>> first = next(stream)
    >>> second = next(stream)
    >>> first.distance <= second.distance
    True
    """
    if not index.is_built:
        raise IndexingError("index has not been built yet")
    if type(index)._child_bounds is MetricIndex._child_bounds:
        return _browse_sorted(index, query)
    return _browse_tree(index, query)


def _browse_sorted(index: MetricIndex, query: np.ndarray) -> Iterator[Neighbor]:
    """Fallback: one full k=n query, then yield from the sorted result."""
    return iter(index.knn_search(query, index.size))


def _browse_tree(tree: MetricIndex, query: np.ndarray) -> Iterator[Neighbor]:
    query = tree._check_query(query)
    tree._search_stats = stats = SearchStats()
    rows, ids = tree._vectors, tree._ids
    live = tree.live_mask.bits

    # Queue entries: (bound, kind, tiebreak, payload).  Kind 0 is a
    # subtree not yet opened (payload: node number, tiebreak: a counter),
    # kind 1 a measured item (payload: Neighbor, tiebreak: its id).
    # Subtrees sort before items at an equal bound, so an item surfaces
    # only when nothing at its distance is still unmeasured and equal
    # distances come out in id order.
    tiebreak = itertools.count()
    queue: list[tuple[float, int, int, object]] = [(0.0, 0, next(tiebreak), 0)]

    def measure(block_ids, block: np.ndarray) -> np.ndarray:
        # One counted kernel call; dead rows are measured (they are
        # inside the structure) but never surface.
        distances = tree._dist_batch(query, block)
        for item_id, d in zip(block_ids, distances.tolist()):
            if live[item_id]:
                heapq.heappush(queue, (d, 1, item_id, Neighbor(item_id, d)))
        return distances

    pending = tree._live_pending()
    if pending is not None:
        measure(pending[0].tolist(), pending[1])

    while queue:
        bound, kind, _, payload = heapq.heappop(queue)
        if kind == 1:
            yield payload  # type: ignore[misc]
            continue

        start, width, inner = tree._node_rows[payload].tolist()
        distances = np.empty(0)  # a k-d tree's inner node has no rows
        if width:
            distances = measure(ids[start : start + width].tolist(), rows[start : start + width])
        if not inner:
            stats.leaves_visited += 1
            continue
        stats.nodes_visited += 1
        kids, bounds, _ = tree._child_bounds(
            query, np.array((payload,)), distances[None, :], None
        )
        for child, child_bound in zip(kids[0].tolist(), bounds[0].tolist()):
            if child >= 0:
                heapq.heappush(queue, (max(bound, child_bound), 0, next(tiebreak), child))
