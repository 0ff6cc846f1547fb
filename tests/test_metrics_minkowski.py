"""Tests for Minkowski-family distances and the base protocol."""

import numpy as np
import pytest

from repro.errors import MetricError
from repro.metrics.base import CountingMetric, pairwise_distances
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)

ALL_MINKOWSKI = [
    ManhattanDistance(),
    EuclideanDistance(),
    ChebyshevDistance(),
    MinkowskiDistance(3.0),
]


class TestKnownValues:
    def test_euclidean_345(self):
        assert EuclideanDistance().distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_manhattan(self):
        assert ManhattanDistance().distance([0.0, 0.0], [3.0, 4.0]) == 7.0

    def test_chebyshev(self):
        assert ChebyshevDistance().distance([0.0, 0.0], [3.0, 4.0]) == 4.0

    def test_minkowski_p2_matches_euclidean(self, rng):
        a, b = rng.random(8), rng.random(8)
        assert MinkowskiDistance(2.0).distance(a, b) == pytest.approx(
            EuclideanDistance().distance(a, b)
        )

    def test_minkowski_p1_matches_manhattan(self, rng):
        a, b = rng.random(8), rng.random(8)
        assert MinkowskiDistance(1.0).distance(a, b) == pytest.approx(
            ManhattanDistance().distance(a, b)
        )

    def test_weighted_euclidean(self):
        metric = WeightedEuclideanDistance([4.0, 1.0])
        assert metric.distance([0.0, 0.0], [1.0, 2.0]) == pytest.approx(np.sqrt(8.0))

    def test_weighted_all_ones_matches_euclidean(self, rng):
        a, b = rng.random(6), rng.random(6)
        metric = WeightedEuclideanDistance(np.ones(6))
        assert metric.distance(a, b) == pytest.approx(EuclideanDistance().distance(a, b))


class TestMetricAxiomsSpotChecks:
    @pytest.mark.parametrize("metric", ALL_MINKOWSKI, ids=lambda m: m.name)
    def test_identity(self, metric, rng):
        a = rng.random(8)
        assert metric.distance(a, a) == pytest.approx(0.0)

    @pytest.mark.parametrize("metric", ALL_MINKOWSKI, ids=lambda m: m.name)
    def test_symmetry(self, metric, rng):
        a, b = rng.random(8), rng.random(8)
        assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))

    @pytest.mark.parametrize("metric", ALL_MINKOWSKI, ids=lambda m: m.name)
    def test_triangle_inequality(self, metric, rng):
        for _ in range(25):
            a, b, c = rng.random(8), rng.random(8), rng.random(8)
            assert metric.distance(a, c) <= (
                metric.distance(a, b) + metric.distance(b, c) + 1e-12
            )


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(MetricError, match="differ"):
            EuclideanDistance().distance([1.0], [1.0, 2.0])

    def test_empty_operands(self):
        with pytest.raises(MetricError, match="empty"):
            EuclideanDistance().distance([], [])

    def test_minkowski_rejects_p_below_one(self):
        with pytest.raises(MetricError, match="p >= 1"):
            MinkowskiDistance(0.5)

    def test_minkowski_rejects_a_non_finite_p(self):
        # NaN once made every distance NaN (name "Lnan"), and p = inf
        # gave d(0, 0) = 1.0; both reached the k-d tree's box norm.
        with pytest.raises(MetricError, match="ChebyshevDistance"):
            MinkowskiDistance(float("inf"))
        for p in (float("nan"), float("-inf")):
            with pytest.raises(MetricError, match="finite p >= 1"):
                MinkowskiDistance(p)

    def test_weighted_rejects_negative_weights(self):
        with pytest.raises(MetricError):
            WeightedEuclideanDistance([-1.0, 2.0])

    def test_weighted_rejects_dim_mismatch(self):
        metric = WeightedEuclideanDistance([1.0, 1.0])
        with pytest.raises(MetricError, match="dim"):
            metric.distance([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])

    def test_weights_property_returns_copy(self):
        metric = WeightedEuclideanDistance([1.0, 2.0])
        metric.weights[0] = 99.0
        assert metric.weights[0] == 1.0


class TestCountingMetric:
    def test_counts_every_call(self, rng):
        counter = CountingMetric(EuclideanDistance())
        for _ in range(5):
            counter.distance(rng.random(4), rng.random(4))
        assert counter.count == 5

    def test_reset(self, rng):
        counter = CountingMetric(EuclideanDistance())
        counter.distance(rng.random(4), rng.random(4))
        counter.reset()
        assert counter.count == 0

    def test_propagates_is_metric(self):
        from repro.metrics.histogram import ChiSquareDistance

        assert CountingMetric(EuclideanDistance()).is_metric
        assert not CountingMetric(ChiSquareDistance()).is_metric

    def test_delegates_value(self):
        counter = CountingMetric(EuclideanDistance())
        assert counter.distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_rejects_non_metric_argument(self):
        with pytest.raises(MetricError):
            CountingMetric(lambda a, b: 0.0)

    def test_callable_protocol(self):
        counter = CountingMetric(EuclideanDistance())
        assert counter([0.0], [1.0]) == 1.0
        assert counter.count == 1


class TestPairwise:
    def test_matrix_properties(self, rng):
        vectors = rng.random((6, 4))
        matrix = pairwise_distances(EuclideanDistance(), vectors)
        assert matrix.shape == (6, 6)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_rejects_non_2d(self):
        with pytest.raises(MetricError):
            pairwise_distances(EuclideanDistance(), np.zeros(5))
