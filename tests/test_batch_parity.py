"""Batch/scalar parity: the batched engine must change nothing but speed.

The contracts pinned here (see ``repro.metrics.base`` and
``repro.index.base``):

* ``Metric.distance_batch(q, V)[i]`` is bit-identical to
  ``Metric.distance(q, V[i])`` for every metric, degenerate operands
  included;
* a batch over n rows counts as exactly n evaluations on
  :class:`CountingMetric`;
* ``knn_search_batch`` / ``range_search_batch`` return, per query,
  exactly the ids and distances of the scalar calls, and leave the sum
  of their :class:`SearchStats` counters in ``last_stats``, on
  **every** index class.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.db.database import ImageDatabase
from repro.errors import IndexingError, MetricError, QueryError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index.antipole import AntipoleTree
from repro.index.filter_refine import FilterRefineIndex
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.laesa import LAESAIndex
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree
from repro.index.stats import SearchStats
from repro.index.vptree import VPTree
from repro.metrics.base import CountingMetric, validate_batch_operands
from repro.metrics.divergence import (
    CanberraDistance,
    CosineDistance,
    JensenShannonDistance,
)
from repro.metrics.emd import MatchDistance
from repro.metrics.histogram import (
    BhattacharyyaDistance,
    ChiSquareDistance,
    HistogramIntersection,
)
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)
from repro.metrics.quadratic import QuadraticFormDistance
from repro.metrics.shifted import CircularShiftDistance
from repro.reduce import KLTransform
from repro.serve.scheduler import QueryScheduler

_DIM = 6


def _psd_matrix(dim=_DIM):
    rng = np.random.default_rng(11)
    basis = rng.random((dim, dim))
    return basis @ basis.T + np.eye(dim)


def _all_metrics():
    rng = np.random.default_rng(12)
    return [
        ManhattanDistance(),
        EuclideanDistance(),
        ChebyshevDistance(),
        MinkowskiDistance(3.0),
        WeightedEuclideanDistance(rng.random(_DIM)),
        HistogramIntersection(),
        ChiSquareDistance(),
        BhattacharyyaDistance(),
        QuadraticFormDistance(_psd_matrix()),
        CosineDistance(),
        CanberraDistance(),
        JensenShannonDistance(),
        MatchDistance(),  # stacked-cumsum kernel
        CircularShiftDistance(),  # stacked-shift kernel, all shifts
        CircularShiftDistance(max_shift=2),  # stacked-shift kernel, capped
        CircularShiftDistance(ManhattanDistance(), max_shift=3),
        CircularShiftDistance(MatchDistance()),  # vectorized base since the EMD kernel
    ]


METRICS = _all_metrics()
METRIC_IDS = [metric.name for metric in METRICS]


# ---------------------------------------------------------------------------
# Metric-level parity
# ---------------------------------------------------------------------------
class TestMetricBatchParity:
    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_batch_bit_identical_to_scalar(self, metric, rng):
        vectors = rng.random((30, _DIM))
        query = rng.random(_DIM)
        batch = metric.distance_batch(query, vectors)
        scalar = np.array([metric.distance(query, row) for row in vectors])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_degenerate_rows_and_query(self, metric, rng):
        # Zero rows, a row equal to the query, and a zero query exercise
        # every degenerate branch (empty histograms, zero norms).
        vectors = rng.random((10, _DIM))
        vectors[3] = 0.0
        for query in (rng.random(_DIM), np.zeros(_DIM), vectors[7].copy()):
            batch = metric.distance_batch(query, vectors)
            scalar = np.array([metric.distance(query, row) for row in vectors])
            assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
    def test_empty_batch(self, metric, rng):
        out = metric.distance_batch(rng.random(_DIM), np.empty((0, _DIM)))
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_shift_kernel_counts_rows_not_shifts(self, rng):
        # A batch over n rows is n distance computations regardless of
        # how many shifts the kernel evaluates internally.
        counter = CountingMetric(CircularShiftDistance())
        counter.distance_batch(rng.random(_DIM), rng.random((13, _DIM)))
        assert counter.count == 13

    def test_shift_kernel_exact_zero_rows(self, rng):
        # The scalar loop early-exits at an exact zero; the kernel's
        # np.minimum must land on the same value.
        metric = CircularShiftDistance()
        vectors = rng.random((6, _DIM))
        query = vectors[2].copy()
        vectors[4] = np.roll(query, 3)  # zero at a non-trivial shift
        batch = metric.distance_batch(query, vectors)
        scalar = np.array([metric.distance(query, row) for row in vectors])
        assert np.array_equal(batch, scalar)
        assert batch[2] == 0.0 and batch[4] == 0.0

    def test_validate_batch_operands_rejects_bad_shapes(self, rng):
        with pytest.raises(MetricError, match="2-D"):
            validate_batch_operands(rng.random(4), rng.random(4), "x")
        with pytest.raises(MetricError, match="dim"):
            validate_batch_operands(rng.random(4), rng.random((3, 5)), "x")
        with pytest.raises(MetricError, match="empty"):
            validate_batch_operands(np.empty(0), np.empty((2, 0)), "x")

    def test_counting_metric_counts_batch_rows(self, rng):
        counter = CountingMetric(EuclideanDistance())
        counter.distance_batch(rng.random(_DIM), rng.random((17, _DIM)))
        assert counter.count == 17
        counter.distance(rng.random(_DIM), rng.random(_DIM))
        assert counter.count == 18

    def test_counting_metric_loop_fallback_not_double_counted(self, rng):
        counter = CountingMetric(MatchDistance())
        counter.distance_batch(rng.random(_DIM), rng.random((9, _DIM)))
        assert counter.count == 9

    def test_counting_metric_batch_values_delegate(self, rng):
        inner = EuclideanDistance()
        counter = CountingMetric(inner)
        query, vectors = rng.random(_DIM), rng.random((8, _DIM))
        assert np.array_equal(
            counter.distance_batch(query, vectors),
            inner.distance_batch(query, vectors),
        )


# ---------------------------------------------------------------------------
# Index-level parity
# ---------------------------------------------------------------------------
INDEX_FACTORIES = {
    "linear": lambda metric: LinearScanIndex(metric),
    "vptree": lambda metric: VPTree(metric, leaf_size=4),
    "antipole": lambda metric: AntipoleTree(metric),
    "kdtree": lambda metric: KDTree(metric, leaf_size=4),
    "laesa": lambda metric: LAESAIndex(metric, n_pivots=4),
    "mtree": lambda metric: MTree(metric),
    "gnat": lambda metric: GNAT(metric, degree=4),
    "filter_refine": lambda metric: FilterRefineIndex(metric, KLTransform(3)),
}

#: Metrics exercised per index: Euclidean everywhere, plus a vectorized
#: histogram metric and a loop-fallback metric where the index admits them
#: (the kd-tree is Minkowski-only by design).
INDEX_METRICS = {
    name: (
        [EuclideanDistance(), ManhattanDistance()]
        if name == "kdtree"
        else [EuclideanDistance(), HistogramIntersection(), MatchDistance()]
    )
    for name in INDEX_FACTORIES
}
# MatchDistance is a metric but the trees that require the triangle
# inequality get it too — it satisfies the axioms on normalized inputs.
# The circular-shift measure is non-metric, so only the linear scan may
# carry it; its stacked-shift kernel gets index-level parity there.
INDEX_METRICS["linear"] = INDEX_METRICS["linear"] + [
    CircularShiftDistance(max_shift=2)
]

_INDEX_CASES = [
    (name, metric)
    for name, metrics in INDEX_METRICS.items()
    for metric in metrics
]
_INDEX_CASE_IDS = [f"{name}-{metric.name}" for name, metric in _INDEX_CASES]


def _build(name, metric, rng, n=70):
    vectors = rng.random((n, _DIM))
    index = INDEX_FACTORIES[name](metric).build(list(range(n)), vectors)
    queries = rng.random((8, _DIM))
    return index, queries


class TestIndexBatchParity:
    @pytest.mark.parametrize("name,metric", _INDEX_CASES, ids=_INDEX_CASE_IDS)
    def test_knn_batch_identical_to_scalar(self, name, metric, rng):
        index, queries = _build(name, metric, rng)
        scalar_results, scalar_stats = [], []
        for query in queries:
            scalar_results.append(index.knn_search(query, 5))
            scalar_stats.append(index.last_stats)
        batch_results = index.knn_search_batch(queries, 5)
        assert batch_results == scalar_results  # ids AND distances, bitwise
        assert index.last_stats == sum(scalar_stats, SearchStats())

    @pytest.mark.parametrize("name,metric", _INDEX_CASES, ids=_INDEX_CASE_IDS)
    def test_range_batch_identical_to_scalar(self, name, metric, rng):
        index, queries = _build(name, metric, rng)
        radius = 0.25 if isinstance(metric, (HistogramIntersection, MatchDistance)) else 0.7
        scalar_results, scalar_stats = [], []
        for query in queries:
            scalar_results.append(index.range_search(query, radius))
            scalar_stats.append(index.last_stats)
        batch_results = index.range_search_batch(queries, radius)
        assert batch_results == scalar_results
        assert index.last_stats == sum(scalar_stats, SearchStats())

    @pytest.mark.parametrize("name", list(INDEX_FACTORIES), ids=list(INDEX_FACTORIES))
    def test_external_counter_agrees_across_paths(self, name, rng):
        # The kd-tree's isinstance check precludes wrapping; everyone else
        # must report identical counts through a wrapped metric.
        if name == "kdtree":
            pytest.skip("KDTree requires an unwrapped Minkowski metric")
        counter = CountingMetric(EuclideanDistance())
        index, queries = _build(name, counter, rng)
        counter.reset()
        for query in queries:
            index.knn_search(query, 4)
        scalar_count = counter.count
        counter.reset()
        index.knn_search_batch(queries, 4)
        assert counter.count == scalar_count
        assert counter.count == index.last_stats.distance_computations

    @pytest.mark.parametrize("name", list(INDEX_FACTORIES), ids=list(INDEX_FACTORIES))
    def test_nan_radius_rejected_inf_accepted(self, name, rng):
        # NaN fails every comparison: a `radius < 0` check passes it on
        # to an empty answer with a kind-dependent distance count.
        index, queries = _build(name, EuclideanDistance(), rng)
        with pytest.raises(IndexingError, match="radius"):
            index.range_search(queries[0], float("nan"))
        with pytest.raises(IndexingError, match="radius"):
            index.range_search_batch(queries, float("nan"))
        everything = index.range_search(queries[0], float("inf"))
        assert len(everything) == index.size
        assert index.range_search_batch(queries[:2], float("inf"))[0] == everything

    def test_batch_validation(self, rng):
        index = LinearScanIndex(EuclideanDistance()).build(
            list(range(10)), rng.random((10, _DIM))
        )
        with pytest.raises(IndexingError, match="2-D"):
            index.knn_search_batch(rng.random(_DIM), 3)
        with pytest.raises(IndexingError, match="dim"):
            index.knn_search_batch(rng.random((2, _DIM + 1)), 3)
        with pytest.raises(IndexingError, match="non-finite"):
            index.knn_search_batch(np.full((2, _DIM), np.nan), 3)
        with pytest.raises(IndexingError, match="k must be"):
            index.knn_search_batch(rng.random((2, _DIM)), 0)
        with pytest.raises(IndexingError, match="radius"):
            index.range_search_batch(rng.random((2, _DIM)), -1.0)
        unbuilt = LinearScanIndex(EuclideanDistance())
        with pytest.raises(IndexingError, match="not been built"):
            unbuilt.knn_search_batch(rng.random((2, _DIM)), 1)

    def test_empty_batch_returns_empty(self, rng):
        index = LinearScanIndex(EuclideanDistance()).build(
            list(range(10)), rng.random((10, _DIM))
        )
        assert index.knn_search_batch(np.empty((0, _DIM)), 3) == []
        assert index.last_stats == SearchStats()

    def test_scalar_query_clears_batch_stats(self, rng):
        # After a batch, last_stats is the batch's sum; the next scalar
        # query starts afresh and reports only its own counters.
        index = LinearScanIndex(EuclideanDistance()).build(
            list(range(10)), rng.random((10, _DIM))
        )
        index.knn_search_batch(rng.random((4, _DIM)), 2)
        assert index.last_stats == SearchStats(40, leaves_visited=4)
        index.knn_search(rng.random(_DIM), 2)
        assert index.last_stats == SearchStats(10, leaves_visited=1)

    def test_filter_refine_batch_aggregates_filter_views(self, rng):
        index = FilterRefineIndex(EuclideanDistance(), KLTransform(3)).build(
            list(range(50)), rng.random((50, _DIM))
        )
        queries = rng.random((5, _DIM))
        per_query_counts, per_query_filter = [], []
        for query in queries:
            index.knn_search(query, 3)
            per_query_counts.append(index.last_candidate_count)
            per_query_filter.append(index.last_filter_stats)
            assert 0.0 <= index.last_candidate_ratio <= 1.0
        index.knn_search_batch(queries, 3)
        assert index.last_candidate_count == sum(per_query_counts)
        assert index.last_filter_stats == sum(per_query_filter, SearchStats())
        assert index.last_candidate_ratio == pytest.approx(
            sum(per_query_counts) / (5 * index.size)
        )
        # A scalar query supersedes the batch views.
        index.knn_search(queries[0], 3)
        assert index.last_candidate_count == per_query_counts[0]
        assert index.last_filter_stats == per_query_filter[0]

    def test_linear_scan_cost_still_exactly_n(self, rng):
        index = LinearScanIndex(EuclideanDistance()).build(
            list(range(25)), rng.random((25, _DIM))
        )
        queries = rng.random((3, _DIM))
        for query in queries:
            index.knn_search(query, 2)
            assert index.last_stats.distance_computations == 25
        index.knn_search_batch(queries, 2)
        assert index.last_stats.distance_computations == 75


# ---------------------------------------------------------------------------
# Property-based parity (hypothesis): arbitrary data, exact equality
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bad", [2.5, float("nan"), 0], ids=["fraction", "nan", "zero"])
def test_k_and_the_budget_are_counts(bad, rng):
    """``k`` and a distance budget count things: 2.5 is not truncated to
    2 neighbours, NaN is not a bare ValueError from ``int()`` (nor, as a
    budget, no budget at all), and 0 is refused — by every index kind's
    k-NN entry points, the VP-tree's approximate search, the database
    (QueryError) and the scheduler (QueryError)."""
    for name in INDEX_FACTORIES:
        index, queries = _build(name, EuclideanDistance(), rng)
        with pytest.raises(IndexingError, match="k must be an integer"):
            index.knn_search(queries[0], bad)
        with pytest.raises(IndexingError, match="k must be an integer"):
            index.knn_search_batch(queries, bad)
    tree, queries = _build("vptree", EuclideanDistance(), rng)
    with pytest.raises(IndexingError, match="k must be an integer"):
        tree.knn_search_approximate(queries[0], bad, epsilon=0.5)
    with pytest.raises(IndexingError, match="max_distance_computations must be an integer"):
        tree.knn_search_approximate(queries[0], 5, max_distance_computations=bad)

    db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
    db.add_vectors(rng.random((30, _DIM)))
    with pytest.raises(QueryError, match="k must be an integer"):
        db.query(queries[0], bad, precomputed=True)
    with pytest.raises(QueryError, match="k must be an integer"):
        db.query_batch(queries, bad, precomputed=True)
    scheduler = QueryScheduler(db, autostart=False)
    try:
        with pytest.raises(QueryError, match="k must be an integer"):
            scheduler.submit_query(queries[0], bad)
    finally:
        scheduler.close()


def _dataset_queries(max_n=40, dim=4, max_m=5):
    return st.tuples(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, max_n), st.just(dim)),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
        ),
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, max_m), st.just(dim)),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
        ),
    )


class TestBatchParityProperties:
    @given(data=_dataset_queries(), k=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_linear_knn_batch_equals_scalar(self, data, k):
        vectors, queries = data
        index = LinearScanIndex(EuclideanDistance()).build(
            list(range(len(vectors))), vectors
        )
        scalar = [index.knn_search(query, k) for query in queries]
        assert index.knn_search_batch(queries, k) == scalar

    @given(data=_dataset_queries(), radius=st.floats(0.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_laesa_range_batch_equals_scalar(self, data, radius):
        vectors, queries = data
        index = LAESAIndex(EuclideanDistance(), n_pivots=3).build(
            list(range(len(vectors))), vectors
        )
        scalar_results, scalar_stats = [], []
        for query in queries:
            scalar_results.append(index.range_search(query, radius))
            scalar_stats.append(index.last_stats)
        assert index.range_search_batch(queries, radius) == scalar_results
        assert index.last_stats == sum(scalar_stats, SearchStats())

    @given(data=_dataset_queries(max_n=30), k=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_vptree_knn_batch_equals_scalar(self, data, k):
        vectors, queries = data
        index = VPTree(EuclideanDistance(), leaf_size=3).build(
            list(range(len(vectors))), vectors
        )
        scalar = [index.knn_search(query, k) for query in queries]
        assert index.knn_search_batch(queries, k) == scalar
