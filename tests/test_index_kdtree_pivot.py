"""Tests for the kd-tree baseline and pivot-selection strategies."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.index.kdtree import KDTree
from repro.index.linear import LinearScanIndex
from repro.index.pivot import MaxSpreadPivot, MaxVariancePivot, RandomPivot
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)

ALL_MINKOWSKI = [
    EuclideanDistance(),
    ManhattanDistance(),
    ChebyshevDistance(),
    MinkowskiDistance(3.0),
    WeightedEuclideanDistance(np.array([1.0, 2.0, 0.5])),
]


class TestKDTreeExactness:
    @pytest.mark.parametrize("metric", ALL_MINKOWSKI, ids=lambda m: m.name)
    def test_knn_matches_linear_scan(self, rng, metric):
        vectors = rng.random((120, 3))
        ids = list(range(120))
        linear = LinearScanIndex(metric).build(ids, vectors)
        tree = KDTree(metric).build(ids, vectors)
        for _ in range(5):
            query = rng.random(3)
            expected = [n.distance for n in linear.knn_search(query, 6)]
            got = [n.distance for n in tree.knn_search(query, 6)]
            assert np.allclose(got, expected)

    def test_range_matches_linear_scan(self, rng):
        metric = EuclideanDistance()
        vectors = rng.random((150, 4))
        ids = list(range(150))
        linear = LinearScanIndex(metric).build(ids, vectors)
        tree = KDTree(metric).build(ids, vectors)
        for radius in (0.0, 0.2, 0.6):
            query = rng.random(4)
            assert {n.id for n in tree.range_search(query, radius)} == {
                n.id for n in linear.range_search(query, radius)
            }

    def test_duplicate_points(self):
        vectors = np.zeros((20, 3))
        tree = KDTree(EuclideanDistance()).build(list(range(20)), vectors)
        assert len(tree.range_search(np.zeros(3), 0.0)) == 20

    def test_heavy_ties_on_split_dimension(self):
        # Median == max on the widest axis: exercises the tie-break path.
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        tree = KDTree(EuclideanDistance()).build([0, 1, 2, 3], vectors)
        assert len(tree.knn_search(np.array([1.0, 0.0]), 4)) == 4

    def test_prunes_at_low_dim(self, rng):
        vectors = rng.random((500, 2))
        tree = KDTree(EuclideanDistance(), leaf_size=4).build(list(range(500)), vectors)
        tree.knn_search(rng.random(2), 5)
        assert tree.last_stats.distance_computations < 250


class TestKDTreeRestrictions:
    def test_rejects_black_box_metric(self):
        with pytest.raises(IndexingError, match="Minkowski"):
            KDTree(HistogramIntersection())

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(IndexingError):
            KDTree(EuclideanDistance(), leaf_size=0)


class TestPivotStrategies:
    @pytest.mark.parametrize(
        "strategy",
        [RandomPivot(), MaxSpreadPivot(), MaxVariancePivot()],
        ids=lambda s: s.name,
    )
    def test_returns_valid_index(self, rng, strategy):
        vectors = rng.random((30, 4))
        metric = EuclideanDistance()
        row = strategy.select(vectors, metric.distance_batch, rng)
        assert 0 <= row < 30

    @pytest.mark.parametrize(
        "strategy",
        [RandomPivot(), MaxSpreadPivot(), MaxVariancePivot()],
        ids=lambda s: s.name,
    )
    def test_single_item(self, rng, strategy):
        vectors = rng.random((1, 4))
        assert strategy.select(vectors, EuclideanDistance().distance_batch, rng) == 0

    def test_max_spread_picks_periphery(self, rng):
        # A dense blob plus one far outlier: the outlier (or something
        # near it) should be selected.
        blob = rng.normal(0.5, 0.01, (50, 2))
        outlier = np.array([[10.0, 10.0]])
        vectors = np.vstack([blob, outlier])
        row = MaxSpreadPivot().select(vectors, EuclideanDistance().distance_batch, rng)
        assert row == 50

    def test_max_variance_prefers_spread(self):
        # Candidate distances from the corner have higher variance than
        # from the centre of a symmetric cloud.
        rng = np.random.default_rng(0)
        ring = np.array(
            [[np.cos(t), np.sin(t)] for t in np.linspace(0, 2 * np.pi, 40, endpoint=False)]
        )
        center = np.zeros((1, 2))
        vectors = np.vstack([ring, center])
        strategy = MaxVariancePivot(n_candidates=41, sample_size=41)
        row = strategy.select(vectors, EuclideanDistance().distance_batch, rng)
        assert row != 40  # the centre has (near-)zero variance: never chosen

    def test_max_variance_validates(self):
        with pytest.raises(IndexingError):
            MaxVariancePivot(n_candidates=0)
        with pytest.raises(IndexingError):
            MaxVariancePivot(sample_size=1)

    def test_strategies_deterministic_given_rng(self):
        vectors = np.random.default_rng(8).random((40, 3))
        dist_batch = EuclideanDistance().distance_batch
        for strategy in (RandomPivot(), MaxSpreadPivot(), MaxVariancePivot()):
            a = strategy.select(vectors, dist_batch, np.random.default_rng(1))
            b = strategy.select(vectors, dist_batch, np.random.default_rng(1))
            assert a == b
