"""Tests for distance browsing (incremental nearest-neighbor)."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.index.browse import browse
from repro.index.antipole import AntipoleTree
from repro.index.linear import LinearScanIndex
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.mtree import MTree
from repro.index.vptree import VPTree
from repro.metrics.base import CountingMetric
from repro.metrics.minkowski import EuclideanDistance


class _Counting(EuclideanDistance):
    """Counts kernel rows; a subclass, as the k-d tree only accepts
    Minkowski metrics."""

    count = 0

    def _kernel(self, query, vectors):
        self.count += vectors.shape[0]
        return EuclideanDistance._kernel(query, vectors)


def _tree(rng, n=200, dim=3, metric=None):
    metric = metric or EuclideanDistance()
    vectors = rng.random((n, dim))
    return VPTree(metric).build(list(range(n)), vectors), vectors


class TestOrderingContract:
    def test_distances_nondecreasing(self, rng):
        tree, _ = _tree(rng)
        stream = browse(tree, rng.random(3))
        distances = [nb.distance for nb in stream]
        assert len(distances) == 200
        assert all(a <= b for a, b in zip(distances, distances[1:]))

    def test_matches_full_knn(self, rng):
        tree, vectors = _tree(rng)
        query = rng.random(3)
        expected = [nb.distance for nb in tree.knn_search(query, 200)]
        got = [nb.distance for nb in browse(tree, query)]
        assert np.allclose(got, expected)

    def test_yields_every_item_exactly_once(self, rng):
        tree, _ = _tree(rng, n=150)
        ids = [nb.id for nb in browse(tree, rng.random(3))]
        assert sorted(ids) == list(range(150))

    def test_query_point_first(self, rng):
        tree, vectors = _tree(rng)
        first = next(browse(tree, vectors[42]))
        assert first.id == 42
        assert first.distance == pytest.approx(0.0)

    def test_duplicates_all_surface(self):
        vectors = np.zeros((25, 2))
        tree = VPTree(EuclideanDistance()).build(list(range(25)), vectors)
        results = list(browse(tree, np.zeros(2)))
        assert len(results) == 25
        assert all(nb.distance == 0.0 for nb in results)

    def test_single_item_tree(self):
        tree = VPTree(EuclideanDistance()).build([7], np.array([[0.5, 0.5]]))
        assert [nb.id for nb in browse(tree, np.zeros(2))] == [7]


class TestMutationOverlay:
    """Browsing a mutated index: dead rows never surface, pending do."""

    @pytest.mark.parametrize(
        "factory", [VPTree, AntipoleTree, GNAT], ids=["vptree", "sorted", "gnat"]
    )
    def test_browse_equals_full_knn_on_mutated_index(self, rng, factory):
        counter = CountingMetric(EuclideanDistance())
        vectors = rng.random((120, 3))
        index = factory(counter).build(list(range(120)), vectors)
        query = vectors[5]
        index.delete([5, 17])
        index.insert_batch([500, 501], np.vstack([vectors[5] + 1e-3, rng.random(3)]))
        assert len(index._ids) + index.n_pending > index.size  # no rebuild: dead rows held

        expected = index.knn_search(query, index.size)
        counter.reset()
        got = list(browse(index, query))
        assert got == expected
        assert got[0].id == 500 and 5 not in {nb.id for nb in got}
        assert counter.count == index.last_stats.distance_computations


class TestLaziness:
    @pytest.mark.parametrize(
        "factory", [VPTree, GNAT, KDTree], ids=["vptree", "gnat", "kdtree"]
    )
    def test_few_results_cost_few_distances(self, rng, factory):
        """Taking 5 of 800 neighbors must not pay anything near 800:
        every tree of the round hooks browses lazily."""
        counter = _Counting()
        vectors = rng.random((800, 2))
        tree = factory(counter).build(list(range(800)), vectors)
        query = rng.random(2)
        counter.count = 0
        stream = browse(tree, query)
        first = [next(stream) for _ in range(5)]
        assert counter.count < 400
        assert counter.count == tree.last_stats.distance_computations
        assert first == tree.knn_search(query, 5)

    def test_exhausting_costs_all_distances(self, rng):
        counter = CountingMetric(EuclideanDistance())
        vectors = rng.random((100, 2))
        tree = VPTree(counter).build(list(range(100)), vectors)
        counter.reset()
        list(browse(tree, rng.random(2)))
        assert counter.count == 100

    def test_stats_track_browsing(self, rng):
        tree, _ = _tree(rng, n=300)
        stream = browse(tree, rng.random(3))
        next(stream)
        early = tree.last_stats.distance_computations
        for _ in range(100):
            next(stream)
        later = tree.last_stats.distance_computations
        assert 0 < early <= later

    def test_abandoned_iterator_does_no_more_work(self, rng):
        counter = CountingMetric(EuclideanDistance())
        vectors = rng.random((400, 2))
        tree = VPTree(counter).build(list(range(400)), vectors)
        counter.reset()
        stream = browse(tree, rng.random(2))
        next(stream)
        spent = counter.count
        del stream
        assert counter.count == spent


class TestFallback:
    def test_linear_scan_fallback_matches(self, rng):
        metric = EuclideanDistance()
        vectors = rng.random((60, 3))
        linear = LinearScanIndex(metric).build(list(range(60)), vectors)
        query = rng.random(3)
        got = list(browse(linear, query))
        assert [nb.id for nb in got] == [
            nb.id for nb in linear.knn_search(query, 60)
        ]

    def test_mtree_fallback_matches(self, rng):
        metric = EuclideanDistance()
        vectors = rng.random((80, 3))
        tree = MTree(metric).build(list(range(80)), vectors)
        query = rng.random(3)
        distances = [nb.distance for nb in browse(tree, query)]
        assert all(a <= b for a, b in zip(distances, distances[1:]))
        assert len(distances) == 80

    def test_unbuilt_index_rejected(self):
        with pytest.raises(IndexingError, match="built"):
            browse(VPTree(EuclideanDistance()), np.zeros(2))

    def test_wrong_dim_query_rejected(self, rng):
        tree, _ = _tree(rng, dim=3)
        with pytest.raises(IndexingError, match="dim"):
            next(browse(tree, rng.random(5)))
