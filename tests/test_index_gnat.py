"""Tests for the GNAT: exactness, range tables, split-point selection."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.index.gnat import GNAT, greedy_maxmin_rows
from repro.index.linear import LinearScanIndex
from repro.metrics.base import CountingMetric
from repro.metrics.histogram import ChiSquareDistance, HistogramIntersection
from repro.metrics.minkowski import EuclideanDistance, ManhattanDistance


def _build_pair(rng, n=150, dim=3, metric=None, **kwargs):
    metric = metric or EuclideanDistance()
    vectors = rng.random((n, dim))
    ids = list(range(n))
    linear = LinearScanIndex(metric).build(ids, vectors)
    tree = GNAT(metric, **kwargs).build(ids, vectors)
    return linear, tree, vectors


class TestGreedyMaxMin:
    def test_selects_requested_count(self, rng):
        vectors = rng.random((40, 2))
        rows = greedy_maxmin_rows(vectors, 5, EuclideanDistance().distance_batch, rng)
        assert len(rows) == 5
        assert len(set(rows)) == 5

    def test_spreads_points(self, rng):
        # Two tight clusters far apart: the first two picks must straddle them.
        cluster_a = rng.normal(0.0, 0.01, (20, 2))
        cluster_b = rng.normal(10.0, 0.01, (20, 2))
        vectors = np.vstack([cluster_a, cluster_b])
        rows = greedy_maxmin_rows(vectors, 2, EuclideanDistance().distance_batch, rng)
        sides = {row < 20 for row in rows}
        assert sides == {True, False}

    def test_handles_duplicates(self, rng):
        vectors = np.zeros((10, 2))
        rows = greedy_maxmin_rows(vectors, 3, EuclideanDistance().distance_batch, rng)
        assert len(set(rows)) == 3

    def test_rejects_oversized_request(self, rng):
        with pytest.raises(IndexingError):
            greedy_maxmin_rows(
                rng.random((3, 2)), 5, EuclideanDistance().distance_batch, rng
            )


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

    @pytest.mark.parametrize("degree", [2, 4, 8, 16])
    def test_every_degree_stays_exact(self, rng, degree):
        linear, tree, _ = _build_pair(rng, n=200, degree=degree)
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
        tree = GNAT(metric).build(ids, vectors)
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
        tree = GNAT(EuclideanDistance()).build(list(range(30)), vectors)
        result = tree.range_search(np.zeros(3), 0.0)
        assert len(result) == 30

    def test_single_item(self):
        tree = GNAT(EuclideanDistance()).build([5], np.array([[1.0, 2.0]]))
        assert tree.knn_search(np.zeros(2), 3)[0].id == 5

    def test_k_larger_than_size_returns_all(self, rng):
        _, tree, _ = _build_pair(rng, n=12)
        assert len(tree.knn_search(rng.random(3), 50)) == 12


class TestRangeTables:
    def test_intervals_cover_subtrees(self, rng):
        """Every stored [low, high] interval must bound its subtree's
        distances to the corresponding split point."""
        metric = EuclideanDistance()
        vectors = rng.random((200, 3))
        tree = GNAT(metric, degree=4).build(list(range(200)), vectors)

        # A child's subtree is a contiguous row range of the tree-ordered
        # block, so "everything under child j" is one slice.
        for node, children in enumerate(tree._children):
            if children is None:
                continue
            start = tree._start[node]
            splits = tree._vectors[start : start + len(children)]
            for j, child in enumerate(children):
                members = [splits[j]]
                if child >= 0:
                    members.extend(tree._vectors[tree._start[child] : tree._stop[child]])
                for i, split in enumerate(splits):
                    for vector in members:
                        d = metric.distance(split, vector)
                        low, high = tree._low[node][i, j], tree._high[node][i, j]
                        assert low - 1e-9 <= d <= high + 1e-9

    def test_prunes_on_clustered_data(self, rng):
        from repro.eval.datasets import gaussian_clusters

        vectors, _ = gaussian_clusters(500, 4, n_clusters=8, cluster_std=0.02, seed=3)
        tree = GNAT(EuclideanDistance(), degree=8).build(list(range(500)), vectors)
        total = 0
        for row in range(10):
            tree.knn_search(vectors[row], 5)
            total += tree.last_stats.distance_computations
        assert total < 0.5 * 10 * 500

    def test_distance_counts_match_counting_metric(self, rng):
        counter = CountingMetric(EuclideanDistance())
        vectors = rng.random((200, 3))
        tree = GNAT(counter).build(list(range(200)), vectors)
        counter.reset()
        tree.knn_search(rng.random(3), 5)
        assert counter.count == tree.last_stats.distance_computations
        counter.reset()
        tree.range_search(rng.random(3), 0.2)
        assert counter.count == tree.last_stats.distance_computations

    def test_small_radius_cheaper_than_large(self, rng):
        _, tree, _ = _build_pair(rng, n=400, dim=2)
        query = rng.random(2)
        tree.range_search(query, 0.01)
        small_cost = tree.last_stats.distance_computations
        tree.range_search(query, 2.0)
        large_cost = tree.last_stats.distance_computations
        assert small_cost < large_cost

    def test_build_stats_populated(self, rng):
        _, tree, _ = _build_pair(rng, n=300, degree=4)
        stats = tree.build_stats
        assert stats.n_nodes > 0
        assert stats.n_leaves > 0
        assert stats.depth > 0
        assert stats.distance_computations > 0


class TestConfiguration:
    def test_rejects_non_metric(self):
        with pytest.raises(IndexingError, match="triangle inequality"):
            GNAT(ChiSquareDistance())

    def test_rejects_bad_degree(self):
        with pytest.raises(IndexingError, match="degree"):
            GNAT(EuclideanDistance(), degree=1)

    def test_rejects_leaf_size_below_degree(self):
        with pytest.raises(IndexingError, match="leaf_size"):
            GNAT(EuclideanDistance(), degree=8, leaf_size=4)

    def test_deterministic_given_seed(self, rng):
        vectors = rng.random((150, 3))
        ids = list(range(150))
        a = GNAT(EuclideanDistance(), seed=7).build(ids, vectors)
        b = GNAT(EuclideanDistance(), seed=7).build(ids, vectors)
        query = rng.random(3)
        a.knn_search(query, 5)
        b.knn_search(query, 5)
        assert (
            a.last_stats.distance_computations == b.last_stats.distance_computations
        )

    def test_degree_two_behaves_like_binary_tree(self, rng):
        linear, tree, _ = _build_pair(rng, n=100, degree=2)
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]
