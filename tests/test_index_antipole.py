"""Tests for the Antipole tree."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.index.antipole import AntipoleTree
from repro.index.linear import LinearScanIndex
from repro.metrics.base import CountingMetric
from repro.metrics.histogram import ChiSquareDistance
from repro.metrics.minkowski import EuclideanDistance


def _build_pair(rng, n=150, dim=3, **kwargs):
    metric = EuclideanDistance()
    vectors = rng.random((n, dim))
    ids = list(range(n))
    linear = LinearScanIndex(metric).build(ids, vectors)
    tree = AntipoleTree(metric, **kwargs).build(ids, vectors)
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

    @pytest.mark.parametrize("radius", [0.0, 0.1, 0.3, 1.0])
    def test_range_matches_linear_scan(self, rng, radius):
        linear, tree, _ = _build_pair(rng)
        for _ in range(5):
            query = rng.random(3)
            expected = {n.id for n in linear.range_search(query, radius)}
            assert {n.id for n in tree.range_search(query, radius)} == expected

    def test_no_duplicate_results(self, rng):
        _, tree, _ = _build_pair(rng)
        result = tree.range_search(rng.random(3), 5.0)  # everything
        ids = [n.id for n in result]
        assert len(ids) == len(set(ids)) == tree.size

    def test_explicit_threshold(self, rng):
        linear, tree, _ = _build_pair(rng, diameter_threshold=0.2)
        assert tree.effective_diameter_threshold == 0.2
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]

    def test_tiny_threshold_still_exact(self, rng):
        # Degenerate case: every cluster is near-singleton.
        linear, tree, _ = _build_pair(rng, n=80, diameter_threshold=1e-6)
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]

    def test_huge_threshold_one_cluster(self, rng):
        # Opposite degenerate case: the whole set is one leaf cluster.
        linear, tree, _ = _build_pair(rng, n=80, diameter_threshold=100.0)
        assert tree.build_stats.n_leaves == 1
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]

    def test_duplicate_vectors(self):
        vectors = np.zeros((15, 3))
        tree = AntipoleTree(EuclideanDistance()).build(list(range(15)), vectors)
        assert len(tree.range_search(np.zeros(3), 0.0)) == 15

    def test_single_item(self):
        tree = AntipoleTree(EuclideanDistance()).build([9], np.array([[0.5, 0.5]]))
        assert tree.knn_search(np.zeros(2), 1)[0].id == 9


class TestAccounting:
    def test_distance_counts_match_counting_metric(self, rng):
        counter = CountingMetric(EuclideanDistance())
        vectors = rng.random((200, 3))
        tree = AntipoleTree(counter).build(list(range(200)), vectors)
        counter.reset()
        tree.knn_search(rng.random(3), 5)
        assert counter.count == tree.last_stats.distance_computations
        counter.reset()
        tree.range_search(rng.random(3), 0.2)
        assert counter.count == tree.last_stats.distance_computations

    def test_cached_distance_exclusion_saves_work(self, rng):
        # Clustered data with a tight query: cluster-level pruning should
        # cut distance computations well below n.
        from repro.eval.datasets import gaussian_clusters

        vectors, _ = gaussian_clusters(400, 4, n_clusters=8, cluster_std=0.02, seed=1)
        tree = AntipoleTree(EuclideanDistance()).build(list(range(400)), vectors)
        tree.range_search(vectors[0], 0.05)
        assert tree.last_stats.distance_computations < 400

    def test_build_stats(self, rng):
        _, tree, _ = _build_pair(rng, n=200)
        assert tree.build_stats.n_leaves >= 1
        assert tree.build_stats.distance_computations > 0


class TestIdsOnlyRangeSearch:
    def test_same_id_set_as_exact(self, rng):
        linear, tree, _ = _build_pair(rng)
        for radius in (0.1, 0.3, 0.8):
            query = rng.random(3)
            expected = {n.id for n in linear.range_search(query, radius)}
            assert set(tree.range_search_ids(query, radius)) == expected

    def test_wholesale_inclusion_can_skip_computations(self, rng):
        from repro.eval.datasets import gaussian_clusters

        vectors, _ = gaussian_clusters(300, 3, n_clusters=5, cluster_std=0.02, seed=2)
        tree = AntipoleTree(EuclideanDistance()).build(list(range(300)), vectors)
        query = vectors[0]
        radius = 0.3  # large enough to swallow whole clusters

        exact_result = tree.range_search(query, radius)
        exact_cost = tree.last_stats.distance_computations
        ids = tree.range_search_ids(query, radius)
        ids_cost = tree.last_stats.distance_computations
        wholesale = tree.last_stats.items_included_wholesale

        assert set(ids) == {n.id for n in exact_result}
        if wholesale > 0:
            assert ids_cost < exact_cost

    def test_validates_radius(self, rng):
        _, tree, _ = _build_pair(rng)
        with pytest.raises(IndexingError):
            tree.range_search_ids(rng.random(3), -1.0)
        with pytest.raises(IndexingError, match="radius"):
            tree.range_search_ids(rng.random(3), float("nan"))


class TestConfiguration:
    def test_rejects_non_metric(self):
        with pytest.raises(IndexingError, match="triangle"):
            AntipoleTree(ChiSquareDistance())

    def test_validates_parameters(self):
        metric = EuclideanDistance()
        with pytest.raises(IndexingError):
            AntipoleTree(metric, diameter_threshold=-1.0)
        with pytest.raises(IndexingError):
            AntipoleTree(metric, diameter_fraction=0.0)
        with pytest.raises(IndexingError):
            AntipoleTree(metric, tournament_size=1)
        with pytest.raises(IndexingError):
            AntipoleTree(metric, tournament_size=5, final_round_size=4)

    def test_threshold_unavailable_before_build(self):
        tree = AntipoleTree(EuclideanDistance())
        with pytest.raises(IndexingError, match="not been built"):
            _ = tree.effective_diameter_threshold

    def test_derived_threshold_is_fraction_of_diameter(self, rng):
        vectors = rng.random((100, 2))
        tree = AntipoleTree(EuclideanDistance(), diameter_fraction=0.3).build(
            list(range(100)), vectors
        )
        true_diameter = 0.0
        for i in range(100):
            deltas = vectors - vectors[i]
            true_diameter = max(true_diameter, float(np.linalg.norm(deltas, axis=1).max()))
        threshold = tree.effective_diameter_threshold
        # Approximate antipole under-estimates, never exceeds the true
        # diameter; it should land in a sane band below it.
        assert 0.3 * 0.5 * true_diameter <= threshold <= 0.3 * true_diameter + 1e-9

    def test_deterministic_given_seed(self, rng):
        vectors = rng.random((100, 3))
        ids = list(range(100))
        a = AntipoleTree(EuclideanDistance(), seed=3).build(ids, vectors)
        b = AntipoleTree(EuclideanDistance(), seed=3).build(ids, vectors)
        query = rng.random(3)
        a.knn_search(query, 5)
        b.knn_search(query, 5)
        assert a.last_stats.distance_computations == b.last_stats.distance_computations
