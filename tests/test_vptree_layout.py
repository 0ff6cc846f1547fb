"""The VP-tree's flat layout and its single traversal, pinned from outside.

* **layout** — after ``build`` and after ``rebuild`` every id sits in
  exactly one row of the tree-ordered block, child row ranges nest and
  tile their parent, and the stored intervals are the recomputed
  min/max pivot distances bit for bit;
* **call pattern** — a wrapper that counts metric *calls* (not rows)
  proves one kernel call per visited node or leaf on every entry point,
  so per-item scalar calls cannot creep back unnoticed;
* **entry-point parity** — on generated data full of ties and
  duplicates, the scalar entry, a one-row batch and a row of an m-row
  batch agree on ids, distance floats and the whole ``SearchStats``, and
  all of them (approximate modes included) agree with the recursive
  reference kept below;
* **depth** — a collection of identical histograms builds a chain one
  node per item deep; nothing may recurse.
"""

import dataclasses
import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.index.browse import browse
from repro.index.linear import LinearScanIndex
from repro.index.stats import SearchStats
from repro.index.vptree import VPTree, _interval_gap
from repro.metrics.base import Metric
from repro.metrics.minkowski import EuclideanDistance, ManhattanDistance


def _is_leaf(tree, node):
    return tree._inside[node] < 0 and tree._outside[node] < 0


# ----------------------------------------------------------------------
# (a) Layout invariants
# ----------------------------------------------------------------------
def _check_layout(tree, ids, vectors):
    n = len(ids)
    assert tree._rows.shape == vectors.shape and tree._rows.flags["C_CONTIGUOUS"]
    assert sorted(tree._tree_ids) == sorted(ids)
    row_of = {item_id: row for row, item_id in enumerate(ids)}
    for row, item_id in enumerate(tree._tree_ids):
        assert np.array_equal(tree._rows[row], vectors[row_of[item_id]])

    n_nodes = len(tree._start)
    for name in ("_stop", "_inside", "_outside", "_in_low", "_in_high",
                 "_out_low", "_out_high"):
        assert len(getattr(tree, name)) == n_nodes
    assert (tree._start[0], tree._stop[0]) == (0, n)
    seen = 0
    for node in range(n_nodes):
        start, stop = tree._start[node], tree._stop[node]
        inside, outside = tree._inside[node], tree._outside[node]
        if _is_leaf(tree, node):
            assert 0 < stop - start <= tree._leaf_size
            seen += stop - start
            continue
        seen += 1
        assert stop - start > tree._leaf_size
        # Pre-order: the pivot row, the inside range, the outside range.
        split = tree._start[outside] if outside >= 0 else stop
        if inside >= 0:
            assert inside == node + 1
            assert (tree._start[inside], tree._stop[inside]) == (start + 1, split)
        else:
            assert split == start + 1 and outside == node + 1
        if outside >= 0:
            assert tree._stop[outside] == stop and outside > node
        pivot = tree._rows[start]
        for child, low, high in (
            (inside, tree._in_low[node], tree._in_high[node]),
            (outside, tree._out_low[node], tree._out_high[node]),
        ):
            if child < 0:
                assert (low, high) == (0.0, 0.0)
                continue
            distances = tree.metric.distance_batch(
                pivot, tree._rows[tree._start[child] : tree._stop[child]]
            )
            assert low == float(distances.min()) and high == float(distances.max())
    assert seen == n
    stats = tree.build_stats
    assert stats.n_nodes + stats.n_leaves == n_nodes


@pytest.mark.parametrize("leaf_size", [1, 4, 8])
@pytest.mark.parametrize("metric", [EuclideanDistance(), ManhattanDistance()],
                         ids=lambda m: m.name)
def test_layout_after_build_and_rebuild(rng, leaf_size, metric):
    n, dim = 300, 5
    vectors = rng.random((n, dim))
    vectors[40:60] = vectors[40]  # a run of duplicates: degenerate splits
    ids = list(range(100, 100 + n))
    tree = VPTree(metric, leaf_size=leaf_size, seed=2).build(ids, vectors)
    _check_layout(tree, ids, vectors)

    extra = rng.random((10, dim))
    tree.delete(ids[:15])
    tree.insert_batch(list(range(900, 910)), extra)
    tree.rebuild()
    assert tree.n_pending == tree.n_tombstones == 0
    live_ids = ids[15:] + list(range(900, 910))
    _check_layout(tree, live_ids, np.vstack([vectors[15:], extra]))


# ----------------------------------------------------------------------
# (b) One kernel call per visited node or leaf
# ----------------------------------------------------------------------
class _CallCounter(Metric):
    """Counts metric *calls* — a batch of any size is one call."""

    def __init__(self, inner: Metric) -> None:
        self.inner = inner
        self.calls = 0

    def distance(self, a, b):
        self.calls += 1
        return self.inner.distance(a, b)

    def _kernel(self, query, vectors):
        self.calls += 1
        return self.inner._kernel(query, vectors)


def test_one_kernel_call_per_visit(rng):
    counter = _CallCounter(EuclideanDistance())
    vectors = rng.random((600, 4))
    tree = VPTree(counter, leaf_size=4).build(list(range(600)), vectors)
    queries = rng.random((5, 4))

    def visits(stats):
        assert stats.nodes_visited and stats.leaves_visited
        return stats.nodes_visited + stats.leaves_visited

    for search in (
        lambda: tree.knn_search(queries[0], 7),
        lambda: tree.range_search(queries[1], 0.25),
        lambda: tree.knn_search_approximate(queries[2], 7, epsilon=0.5),
        lambda: tree.knn_search_approximate(
            queries[3], 7, max_distance_computations=45
        ),
        lambda: tree.knn_search_batch(queries, 7),
        lambda: tree.range_search_batch(queries, 0.25),
    ):
        counter.calls = 0
        search()
        assert counter.calls == visits(tree.last_stats)


# ----------------------------------------------------------------------
# (c) Entry-point parity against a recursive reference
# ----------------------------------------------------------------------
def _reference_knn(tree, query, k, epsilon=0.0, budget=None):
    """The recursive, one-distance-at-a-time branch-and-bound."""
    metric = tree.metric
    stats = SearchStats()
    heap = []
    shrink = 1.0 / (1.0 + epsilon)

    def offer(row):
        stats.distance_computations += 1
        d = metric.distance(query, tree._rows[row])
        entry = (-d, -tree._tree_ids[row])
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
        return d

    def spent():
        return budget is not None and stats.distance_computations >= budget

    def visit(node):
        if spent():
            return
        start, stop = tree._start[node], tree._stop[node]
        if _is_leaf(tree, node):
            stats.leaves_visited += 1
            for row in range(start, stop):
                if spent():
                    return
                offer(row)
            return
        stats.nodes_visited += 1
        d = offer(start)
        children = [
            (tree._inside[node], tree._in_low[node], tree._in_high[node]),
            (tree._outside[node], tree._out_low[node], tree._out_high[node]),
        ]
        children.sort(key=lambda c: _interval_gap(d, c[1], c[2]))
        for child, low, high in children:
            if child < 0:
                continue
            tau = -heap[0][0] if len(heap) == k else np.inf
            if _interval_gap(d, low, high) <= tau * shrink:
                visit(child)
            else:
                stats.nodes_pruned += 1

    visit(0)
    result = sorted((-neg_d, -neg_id) for neg_d, neg_id in heap)
    return [(item_id, d) for d, item_id in result], stats


def _pairs(result):
    return [(nb.id, nb.distance) for nb in result]


#: Coordinates from a coarse grid: ties and exact duplicates everywhere.
_grid = st.integers(0, 3).map(lambda v: v / 4.0)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 3))
    vectors = draw(hnp.arrays(np.float64, (n, dim), elements=_grid))
    queries = draw(hnp.arrays(np.float64, (3, dim), elements=_grid))
    return (
        vectors,
        queries,
        draw(st.sampled_from([1, 2, 8])),  # leaf_size
        draw(st.integers(1, n + 3)),  # k, past n included
        draw(st.sampled_from([0.0, 0.25, 0.5])),  # radius
        draw(st.sampled_from([0.0, 0.5, 2.0])),  # epsilon
        draw(st.sampled_from([None, 1, 3, 10, 25])),  # budget
    )


@settings(max_examples=120, deadline=None)
@given(_cases())
def test_every_entry_point_agrees(case):
    vectors, queries, leaf_size, k, radius, epsilon, budget = case
    ids = list(range(len(vectors)))
    tree = VPTree(EuclideanDistance(), leaf_size=leaf_size, seed=1).build(ids, vectors)
    oracle = LinearScanIndex(EuclideanDistance()).build(ids, vectors)

    knn_rows = tree.knn_search_batch(queries, k)
    knn_row_stats = tree.last_batch_stats
    range_rows = tree.range_search_batch(queries, radius)
    range_row_stats = tree.last_batch_stats
    for i, query in enumerate(queries):
        scalar = tree.knn_search(query, k)
        scalar_stats = tree.last_stats
        one_row = tree.knn_search_batch(query[None, :], k)
        assert scalar == one_row[0] == knn_rows[i] == oracle.knn_search(query, k)
        assert scalar_stats == tree.last_batch_stats[0] == knn_row_stats[i]
        reference, reference_stats = _reference_knn(tree, query, k)
        assert _pairs(scalar) == reference and scalar_stats == reference_stats

        scalar = tree.range_search(query, radius)
        scalar_stats = tree.last_stats
        one_row = tree.range_search_batch(query[None, :], radius)
        assert scalar == one_row[0] == range_rows[i]
        assert scalar == oracle.range_search(query, radius)
        assert scalar_stats == tree.last_batch_stats[0] == range_row_stats[i]

        approximate = tree.knn_search_approximate(
            query, k, epsilon=epsilon, max_distance_computations=budget
        )
        reference, reference_stats = _reference_knn(tree, query, k, epsilon, budget)
        assert _pairs(approximate) == reference
        assert dataclasses.asdict(tree.last_stats) == dataclasses.asdict(
            reference_stats
        )


# ----------------------------------------------------------------------
# Depth: identical rows build a chain; nothing may recurse
# ----------------------------------------------------------------------
def test_duplicate_heavy_collection_needs_no_recursion():
    n_same, dim = 5000, 4
    vectors = np.zeros((n_same + 3, dim))
    vectors[-3:] = [[0.5, 0, 0, 0], [0, 0.25, 0, 0], [1, 1, 1, 1]]
    ids = list(range(len(vectors)))
    tree = VPTree(EuclideanDistance()).build(ids, vectors)
    oracle = LinearScanIndex(EuclideanDistance()).build(ids, vectors)
    assert tree.build_stats.depth >= n_same - tree._leaf_size

    queries = np.array([[0.0, 0, 0, 0], [0.4, 0.1, 0, 0]])
    for query in queries:
        assert tree.knn_search(query, 12) == oracle.knn_search(query, 12)
        assert tree.range_search(query, 0.3) == oracle.range_search(query, 0.3)
    assert tree.knn_search_batch(queries, 12) == oracle.knn_search_batch(queries, 12)
    assert tree.range_search_batch(queries, 0.3) == oracle.range_search_batch(
        queries, 0.3
    )
    assert list(browse(tree, queries[1])) == oracle.knn_search(queries[1], len(ids))
