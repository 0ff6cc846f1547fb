"""Tests for the M-tree: exactness, dynamic insertion, splits, paging."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree, PROMOTION_POLICIES
from repro.metrics.base import CountingMetric
from repro.metrics.histogram import ChiSquareDistance, HistogramIntersection
from repro.metrics.minkowski import EuclideanDistance, ManhattanDistance


def _build_pair(rng, n=150, dim=3, metric=None, **kwargs):
    metric = metric or EuclideanDistance()
    vectors = rng.random((n, dim))
    ids = list(range(n))
    linear = LinearScanIndex(metric).build(ids, vectors)
    tree = MTree(metric, **kwargs).build(ids, vectors)
    return linear, tree, vectors


class TestExactness:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_knn_matches_linear_scan(self, rng, dim):
        linear, tree, _ = _build_pair(rng, dim=dim)
        for _ in range(10):
            query = rng.random(dim)
            expected = [n.distance for n in linear.knn_search(query, 8)]
            got = [n.distance for n in tree.knn_search(query, 8)]
            assert np.allclose(got, expected)

    @pytest.mark.parametrize("radius", [0.0, 0.1, 0.3, 1.0, 10.0])
    def test_range_matches_linear_scan(self, rng, radius):
        linear, tree, _ = _build_pair(rng)
        for _ in range(5):
            query = rng.random(3)
            expected = {n.id for n in linear.range_search(query, radius)}
            assert {n.id for n in tree.range_search(query, radius)} == expected

    @pytest.mark.parametrize("promotion", PROMOTION_POLICIES)
    def test_every_promotion_policy_stays_exact(self, rng, promotion):
        linear, tree, _ = _build_pair(rng, n=200, promotion=promotion)
        for _ in range(5):
            query = rng.random(3)
            assert [n.id for n in tree.knn_search(query, 7)] == [
                n.id for n in linear.knn_search(query, 7)
            ]

    @pytest.mark.parametrize("capacity", [4, 5, 16, 64])
    def test_every_capacity_stays_exact(self, rng, capacity):
        linear, tree, _ = _build_pair(rng, n=180, capacity=capacity)
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 9)] == [
            n.id for n in linear.knn_search(query, 9)
        ]

    def test_exact_under_l1(self, rng):
        linear, tree, _ = _build_pair(rng, metric=ManhattanDistance())
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]

    def test_exact_under_histogram_intersection(self, rng):
        from repro.features.base import l1_normalize

        vectors = np.array([l1_normalize(rng.random(16)) for _ in range(100)])
        metric = HistogramIntersection()
        ids = list(range(100))
        linear = LinearScanIndex(metric).build(ids, vectors)
        tree = MTree(metric).build(ids, vectors)
        query = l1_normalize(rng.random(16))
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]

    def test_query_point_in_database_found_first(self, rng):
        _, tree, vectors = _build_pair(rng)
        result = tree.knn_search(vectors[37], 1)
        assert result[0].id == 37
        assert result[0].distance == pytest.approx(0.0)

    def test_duplicate_vectors_handled(self):
        vectors = np.zeros((30, 3))
        tree = MTree(EuclideanDistance()).build(list(range(30)), vectors)
        result = tree.range_search(np.zeros(3), 0.0)
        assert len(result) == 30

    def test_single_item(self):
        tree = MTree(EuclideanDistance()).build([5], np.array([[1.0, 2.0]]))
        assert tree.knn_search(np.zeros(2), 3)[0].id == 5

    def test_k_larger_than_size_returns_all(self, rng):
        _, tree, _ = _build_pair(rng, n=12)
        assert len(tree.knn_search(rng.random(3), 50)) == 12


class TestDynamicInsertion:
    def test_insert_then_query_finds_new_item(self, rng):
        _, tree, _ = _build_pair(rng, n=50)
        new_vector = rng.random(3)
        tree.insert(999, new_vector)
        assert tree.size == 51
        result = tree.knn_search(new_vector, 1)
        assert result[0].id == 999
        assert result[0].distance == pytest.approx(0.0)

    def test_incremental_equals_bulk(self, rng):
        """A tree grown by inserts answers queries exactly, like a bulk build."""
        vectors = rng.random((120, 4))
        metric = EuclideanDistance()
        bulk = MTree(metric).build(list(range(120)), vectors)
        grown = MTree(metric).build([0], vectors[:1])
        for i in range(1, 120):
            grown.insert(i, vectors[i])
        linear = LinearScanIndex(metric).build(list(range(120)), vectors)
        for _ in range(5):
            query = rng.random(4)
            expected = [n.id for n in linear.knn_search(query, 6)]
            assert [n.id for n in bulk.knn_search(query, 6)] == expected
            assert [n.id for n in grown.knn_search(query, 6)] == expected

    def test_insert_range_consistency(self, rng):
        _, tree, vectors = _build_pair(rng, n=60)
        for i in range(60, 80):
            tree.insert(i, rng.random(3))
        all_items = tree.range_search(np.full(3, 0.5), 10.0)
        assert len(all_items) == 80

    def test_insert_rejects_duplicate_id(self, rng):
        _, tree, _ = _build_pair(rng, n=10)
        with pytest.raises(IndexingError, match="already indexed"):
            tree.insert(3, rng.random(3))

    def test_insert_rejects_wrong_dim(self, rng):
        _, tree, _ = _build_pair(rng, n=10)
        with pytest.raises(IndexingError, match="dim"):
            tree.insert(100, rng.random(5))

    def test_insert_rejects_non_finite(self, rng):
        _, tree, _ = _build_pair(rng, n=10)
        with pytest.raises(IndexingError, match="non-finite"):
            tree.insert(100, np.array([np.nan, 0.0, 0.0]))

    def test_insert_before_build_rejected(self, rng):
        tree = MTree(EuclideanDistance())
        with pytest.raises(IndexingError, match="build"):
            tree.insert(0, rng.random(3))


    def test_queries_identical_after_incremental_inserts(self, rng):
        # Splits move entries across pages and the rows join the core
        # before they descend; no page may point at a stale row.
        vectors = rng.random((80, 4))
        tree = MTree(EuclideanDistance(), capacity=4).build(
            list(range(40)), vectors[:40]
        )
        for i in range(40, 80):
            tree.insert(i, vectors[i])
        oracle = LinearScanIndex(EuclideanDistance()).build(
            list(range(80)), vectors
        )
        for query in rng.random((6, 4)):
            assert tree.knn_search(query, 5) == oracle.knn_search(query, 5)
            assert tree.range_search(query, 0.6) == oracle.range_search(query, 0.6)


class TestStructure:
    def test_tree_grows_in_height(self, rng):
        vectors = rng.random((300, 2))
        tree = MTree(EuclideanDistance(), capacity=4).build(
            list(range(300)), vectors
        )
        assert tree.height >= 3
        assert tree.n_splits > 0
        assert tree.n_pages > 10

    def test_small_build_is_single_leaf(self, rng):
        tree = MTree(EuclideanDistance(), capacity=8).build(
            list(range(5)), rng.random((5, 2))
        )
        assert tree.height == 1
        assert tree.n_pages == 1
        assert tree.n_splits == 0

    def test_no_page_exceeds_capacity(self, rng):
        capacity = 6
        tree = MTree(EuclideanDistance(), capacity=capacity).build(
            list(range(250)), rng.random((250, 3))
        )
        assert all(len(rows) <= capacity for rows in tree._entry_rows)

    def test_covering_radii_are_upper_bounds(self, rng):
        """Every routing entry's radius must cover all objects below it."""
        metric = EuclideanDistance()
        tree = MTree(metric, capacity=5).build(
            list(range(150)), rng.random((150, 3))
        )

        def leaf_rows(page):
            if tree._leaf[page]:
                return list(tree._entry_rows[page])
            return [row for child in tree._child[page] for row in leaf_rows(child)]

        for page in range(tree.n_pages):
            if tree._leaf[page]:
                continue
            for row, radius, child in zip(
                tree._entry_rows[page], tree._radius[page], tree._child[page]
            ):
                for below in leaf_rows(child):
                    assert (
                        metric.distance(tree._vectors[row], tree._vectors[below])
                        <= radius + 1e-9
                    )

    def test_d_parent_values_are_exact(self, rng):
        metric = EuclideanDistance()
        tree = MTree(metric, capacity=5).build(
            list(range(100)), rng.random((100, 3))
        )
        tree.insert_batch(list(range(100, 140)), rng.random((40, 3)))
        for page in range(tree.n_pages):
            parent = tree._parent[page]
            if parent < 0:
                assert page == tree._root
                continue
            # Each page hangs under exactly one routing entry of its parent.
            assert tree._child[parent].count(page) == 1
            routing = tree._entry_rows[parent][tree._child[parent].index(page)]
            for row, d_parent in zip(tree._entry_rows[page], tree._d_parent[page]):
                assert d_parent == pytest.approx(
                    metric.distance(tree._vectors[routing], tree._vectors[row])
                )

    def test_build_stats_populated(self, rng):
        _, tree, _ = _build_pair(rng, n=200, capacity=5)
        stats = tree.build_stats
        assert stats.n_leaves > 1
        assert stats.n_nodes >= 1
        assert stats.depth >= 1
        assert stats.distance_computations > 0
        assert stats.extra["n_splits"] == tree.n_splits


class TestPruningAndAccounting:
    def test_prunes_on_low_dimensional_data(self, rng):
        _, tree, _ = _build_pair(rng, n=500, dim=2)
        total = 0
        for _ in range(10):
            tree.knn_search(rng.random(2), 5)
            total += tree.last_stats.distance_computations
        assert total < 0.5 * 10 * 500

    def test_small_radius_cheaper_than_large(self, rng):
        _, tree, _ = _build_pair(rng, n=400, dim=2)
        query = rng.random(2)
        tree.range_search(query, 0.01)
        small_cost = tree.last_stats.distance_computations
        tree.range_search(query, 2.0)
        large_cost = tree.last_stats.distance_computations
        assert small_cost < large_cost

    def test_distance_counts_match_counting_metric(self, rng):
        counter = CountingMetric(EuclideanDistance())
        vectors = rng.random((200, 3))
        tree = MTree(counter).build(list(range(200)), vectors)
        counter.reset()
        tree.knn_search(rng.random(3), 5)
        assert counter.count == tree.last_stats.distance_computations
        counter.reset()
        tree.range_search(rng.random(3), 0.2)
        assert counter.count == tree.last_stats.distance_computations

    def test_page_reads_reported(self, rng):
        _, tree, _ = _build_pair(rng, n=300, dim=2, capacity=5)
        tree.knn_search(rng.random(2), 5)
        stats = tree.last_stats
        assert stats.leaves_visited >= 1
        assert stats.nodes_visited >= 1
        assert stats.leaves_visited + stats.nodes_visited <= tree.n_pages

    def test_parent_filter_prunes_without_distance(self, rng):
        """With a tight radius most subtrees must be discarded."""
        _, tree, _ = _build_pair(rng, n=400, dim=2, capacity=5)
        tree.range_search(rng.random(2), 0.02)
        assert tree.last_stats.nodes_pruned > 0
        assert tree.last_stats.distance_computations < 400


class TestConfiguration:
    def test_rejects_non_metric(self):
        with pytest.raises(IndexingError, match="triangle inequality"):
            MTree(ChiSquareDistance())

    def test_rejects_tiny_capacity(self):
        with pytest.raises(IndexingError, match="capacity"):
            MTree(EuclideanDistance(), capacity=3)

    def test_rejects_unknown_promotion(self):
        with pytest.raises(IndexingError, match="promotion"):
            MTree(EuclideanDistance(), promotion="best")

    def test_deterministic_given_seed(self, rng):
        vectors = rng.random((100, 3))
        ids = list(range(100))
        a = MTree(EuclideanDistance(), promotion="random", seed=7).build(ids, vectors)
        b = MTree(EuclideanDistance(), promotion="random", seed=7).build(ids, vectors)
        query = rng.random(3)
        a.knn_search(query, 5)
        b.knn_search(query, 5)
        assert (
            a.last_stats.distance_computations == b.last_stats.distance_computations
        )

    def test_rebuild_repeats_a_fresh_build(self, rng):
        """Every build draws its random promotions from the seed again,
        so a rebuild of the same object — a threshold ``rebuild()``
        included — gives the pages, build stats and query counts of a
        fresh tree over the same items."""
        vectors = rng.random((300, 8))

        def tree():
            return MTree(EuclideanDistance(), promotion="random", seed=0)

        def pages(index):
            return (index._root, index._leaf, index._parent, index._entry_rows,
                    index._radius, index._d_parent, index._child)

        rebuilt = tree().build(range(300), vectors)
        rebuilt.delete([5, 77, 210])
        rebuilt.rebuild()
        survivors = [i for i in range(300) if i not in (5, 77, 210)]
        fresh = tree().build(survivors, vectors[survivors])
        again = tree().build(survivors, vectors[survivors])
        again.build(survivors, vectors[survivors])
        for other in (rebuilt, again):
            assert pages(other) == pages(fresh)
            assert other.build_stats == fresh.build_stats
            for query in rng.random((4, 8)):
                assert other.knn_search(query, 5) == fresh.knn_search(query, 5)
                assert other.last_stats == fresh.last_stats

    def test_repr_shows_state(self, rng):
        tree = MTree(EuclideanDistance())
        assert "unbuilt" in repr(tree)
        tree.build([0, 1], rng.random((2, 2)))
        assert "size=2" in repr(tree)


class _CallCounter(EuclideanDistance):
    """Records the row count of every metric kernel call."""

    def __init__(self) -> None:
        self.calls: list[int] = []

    def _kernel(self, query, vectors):
        self.calls.append(vectors.shape[0])
        return EuclideanDistance._kernel(query, vectors)


def _float_arrays(value, seen):
    """Every float ndarray reachable from ``value`` through containers
    and object attributes."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _float_arrays(item, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _float_arrays(item, seen)
    elif hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        for name in getattr(value, "__slots__", ()):
            yield from _float_arrays(getattr(value, name, None), seen)
        for item in getattr(value, "__dict__", {}).values():
            yield from _float_arrays(item, seen)


class TestKernelCalls:
    def test_knn_one_row_per_call_range_one_call_per_page(self, rng):
        counter = _CallCounter()
        tree = MTree(counter, capacity=5).build(list(range(400)), rng.random((400, 3)))
        for query in rng.random((4, 3)):
            counter.calls = []
            tree.knn_search(query, 7)
            # The parent filter tests tau before each evaluation.
            assert counter.calls == [1] * tree.last_stats.distance_computations

            for radius, exact in ((0.15, False), (10.0, True)):
                counter.calls = []
                tree.range_search(query, radius)
                stats = tree.last_stats
                pages = stats.nodes_visited + stats.leaves_visited
                # One gathered call per visited page with parent-filter
                # survivors: every visited page when nothing is filtered.
                calls = len(counter.calls)
                assert calls == pages if exact else calls <= pages
                assert 0 not in counter.calls
                assert sum(counter.calls) == stats.distance_computations

    def test_the_core_is_the_only_float_array(self, rng):
        tree = MTree(EuclideanDistance(), capacity=4).build(
            list(range(200)), rng.random((200, 3))
        )
        tree.insert_batch(list(range(200, 260)), rng.random((60, 3)))
        tree.range_search(rng.random(3), 0.3)
        held = vars(tree).copy()
        del held["_core"], held["_metric"]  # the backend owns the core block
        found = list(_float_arrays(held, set()))
        assert len(found) == 1 and found[0] is tree._vectors
