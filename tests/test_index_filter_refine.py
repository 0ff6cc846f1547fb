"""Tests for GEMINI filter-and-refine: exactness, candidate accounting."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.index.filter_refine import FilterRefineIndex
from repro.index.linear import LinearScanIndex
from repro.index.stats import SearchStats
from repro.index.vptree import VPTree
from repro.metrics.base import CountingMetric
from repro.metrics.minkowski import EuclideanDistance
from repro.reduce import FastMap, KLTransform


def _correlated(rng, n=250, dim=24, rank=4):
    basis = rng.normal(size=(rank, dim))
    weights = rng.normal(size=(n, rank)) * np.linspace(8.0, 1.0, rank)
    return weights @ basis + rng.normal(0.0, 0.02, (n, dim))


def _build_pair(rng, reduced_dim=4, n=250, **kwargs):
    vectors = _correlated(rng, n=n)
    metric = EuclideanDistance()
    ids = list(range(n))
    linear = LinearScanIndex(metric).build(ids, vectors)
    index = FilterRefineIndex(metric, KLTransform(reduced_dim), **kwargs).build(
        ids, vectors
    )
    return linear, index, vectors


class TestExactness:
    def test_knn_matches_linear_scan(self, rng):
        linear, index, vectors = _build_pair(rng)
        for _ in range(10):
            query = vectors[0] + rng.normal(0.0, 0.5, vectors.shape[1])
            expected = [n.id for n in linear.knn_search(query, 8)]
            assert [n.id for n in index.knn_search(query, 8)] == expected

    @pytest.mark.parametrize("radius", [0.0, 0.5, 2.0, 100.0])
    def test_range_matches_linear_scan(self, rng, radius):
        linear, index, vectors = _build_pair(rng)
        for row in (0, 10, 20):
            query = vectors[row]
            expected = {n.id for n in linear.range_search(query, radius)}
            assert {n.id for n in index.range_search(query, radius)} == expected

    @pytest.mark.parametrize("reduced_dim", [1, 2, 8, 16])
    def test_exact_at_every_reduced_dim(self, rng, reduced_dim):
        linear, index, vectors = _build_pair(rng, reduced_dim=reduced_dim)
        query = rng.normal(size=vectors.shape[1])
        assert [n.id for n in index.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]

    def test_exact_with_vptree_inner(self, rng):
        linear, index, vectors = _build_pair(
            rng, inner_factory=lambda metric: VPTree(metric)
        )
        query = rng.normal(size=vectors.shape[1])
        assert [n.id for n in index.knn_search(query, 6)] == [
            n.id for n in linear.knn_search(query, 6)
        ]

    def test_query_point_in_database_found_first(self, rng):
        _, index, vectors = _build_pair(rng)
        result = index.knn_search(vectors[42], 1)
        assert result[0].id == 42
        assert result[0].distance == pytest.approx(0.0)

    def test_k_larger_than_size_returns_all(self, rng):
        _, index, _ = _build_pair(rng, n=15)
        assert len(index.knn_search(rng.normal(size=24), 60)) == 15

    def test_exact_flag_reflects_reducer(self, rng):
        vectors = _correlated(rng)
        exact = FilterRefineIndex(EuclideanDistance(), KLTransform(4)).build(
            list(range(250)), vectors
        )
        heuristic = FilterRefineIndex(EuclideanDistance(), FastMap(4)).build(
            list(range(250)), vectors
        )
        assert exact.exact is True
        assert heuristic.exact is False


class TestFilterEconomy:
    def test_refine_cost_below_scan_on_correlated_data(self, rng):
        """The whole point: most items never get a full-metric distance."""
        _, index, vectors = _build_pair(rng)
        total = 0
        for row in range(10):
            index.knn_search(vectors[row], 5)
            total += index.last_stats.distance_computations
        assert total < 0.5 * 10 * 250

    def test_candidate_accounting(self, rng):
        _, index, vectors = _build_pair(rng)
        index.range_search(vectors[3], 1.0)
        assert index.last_candidate_count >= len(index.range_search(vectors[3], 1.0))
        assert 0.0 <= index.last_candidate_ratio <= 1.0

    def test_refine_count_equals_candidates_for_range(self, rng):
        counter = CountingMetric(EuclideanDistance())
        vectors = _correlated(rng)
        index = FilterRefineIndex(counter, KLTransform(4)).build(
            list(range(250)), vectors
        )
        counter.reset()
        index.range_search(vectors[7], 0.8)
        # One full-metric evaluation per filter survivor, none besides.
        assert counter.count == index.last_candidate_count
        assert counter.count == index.last_stats.distance_computations

    def test_filter_stats_populated(self, rng):
        _, index, vectors = _build_pair(rng)
        index.knn_search(vectors[5], 4)
        assert index.last_filter_stats.distance_computations > 0

    def test_smaller_radius_admits_fewer_candidates(self, rng):
        _, index, vectors = _build_pair(rng)
        index.range_search(vectors[2], 0.1)
        small = index.last_candidate_count
        index.range_search(vectors[2], 5.0)
        large = index.last_candidate_count
        assert small <= large

    def test_higher_reduced_dim_is_more_selective(self, rng):
        vectors = _correlated(rng)
        ids = list(range(250))
        counts = []
        for reduced_dim in (1, 8):
            index = FilterRefineIndex(
                EuclideanDistance(), KLTransform(reduced_dim)
            ).build(ids, vectors)
            index.range_search(vectors[0], 1.0)
            counts.append(index.last_candidate_count)
        assert counts[1] <= counts[0]


class TestConfiguration:
    def test_rejects_non_reducer(self):
        with pytest.raises(IndexingError, match="Reducer"):
            FilterRefineIndex(EuclideanDistance(), reducer="kl")  # type: ignore[arg-type]

    def test_prefitted_reducer_reused(self, rng):
        vectors = _correlated(rng)
        reducer = KLTransform(4).fit(vectors)
        index = FilterRefineIndex(EuclideanDistance(), reducer).build(
            list(range(250)), vectors
        )
        assert index.reducer is reducer

    def test_prefitted_reducer_dim_mismatch_rejected(self, rng):
        reducer = KLTransform(2).fit(rng.random((20, 8)))
        with pytest.raises(IndexingError, match="fitted for dim"):
            FilterRefineIndex(EuclideanDistance(), reducer).build(
                [0, 1], rng.random((2, 5))
            )

    def test_inner_exposed_after_build(self, rng):
        _, index, _ = _build_pair(rng)
        assert index.inner.size == 250
        assert index.inner.dim == 4

    def test_inner_before_build_rejected(self):
        index = FilterRefineIndex(EuclideanDistance(), KLTransform(2))
        with pytest.raises(IndexingError, match="built"):
            index.inner

    def test_build_stats_record_reduced_dim(self, rng):
        _, index, _ = _build_pair(rng, reduced_dim=6)
        assert index.build_stats.extra["reduced_dim"] == 6


class TestBatchedFilterStage:
    def test_range_batch_runs_the_scalar_filter_per_query(self, rng):
        _, index, vectors = _build_pair(rng)
        queries = rng.random((6, vectors.shape[1]))
        index.range_search_batch(queries, 0.5)
        # A batch is the scalar path once per query: the inner index saw
        # one scalar filter call per query, the last one left in place.
        last_inner = index.inner.last_stats
        index.range_search(queries[-1], 0.5)
        assert last_inner == index.last_filter_stats

    def test_range_batch_matches_scalar_views(self, rng):
        _, index, vectors = _build_pair(rng)
        queries = rng.random((5, vectors.shape[1]))
        scalar_results, scalar_filter, scalar_counts = [], [], []
        for query in queries:
            scalar_results.append(index.range_search(query, 0.55))
            scalar_filter.append(index.last_filter_stats)
            scalar_counts.append(index.last_candidate_count)
        batch_results = index.range_search_batch(queries, 0.55)
        assert batch_results == scalar_results
        assert index.last_filter_stats == sum(scalar_filter, SearchStats())
        assert index.last_candidate_count == sum(scalar_counts)

    def test_range_batch_empty_queries(self, rng):
        _, index, vectors = _build_pair(rng)
        assert index.range_search_batch(np.empty((0, vectors.shape[1])), 0.5) == []
        assert index.last_stats == index.last_filter_stats == SearchStats()
        assert index.last_candidate_count == 0
        assert index.last_candidate_ratio == 0.0
