"""Tests for the VP-tree: exactness, pruning, approximation contracts."""

import numpy as np
import pytest

from repro.errors import IndexingError
from repro.index.antipole import AntipoleTree
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.laesa import LAESAIndex
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree
from repro.index.pivot import MaxVariancePivot, RandomPivot
from repro.index.vptree import VPTree, _interval_gap
from repro.metrics.base import CountingMetric
from repro.metrics.histogram import ChiSquareDistance, HistogramIntersection
from repro.metrics.minkowski import EuclideanDistance, ManhattanDistance


def _build_pair(rng, n=150, dim=3, metric=None):
    metric = metric or EuclideanDistance()
    vectors = rng.random((n, dim))
    ids = list(range(n))
    linear = LinearScanIndex(metric).build(ids, vectors)
    tree = VPTree(metric).build(ids, vectors)
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

    def test_exact_under_l1(self, rng):
        linear, tree, _ = _build_pair(rng, metric=ManhattanDistance())
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]

    def test_exact_under_histogram_intersection(self, rng):
        # A non-Minkowski metric: only metric trees can index it.
        from repro.features.base import l1_normalize

        vectors = np.array([l1_normalize(rng.random(16)) for _ in range(100)])
        metric = HistogramIntersection()
        ids = list(range(100))
        linear = LinearScanIndex(metric).build(ids, vectors)
        tree = VPTree(metric).build(ids, vectors)
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
        vectors = np.zeros((20, 3))
        tree = VPTree(EuclideanDistance()).build(list(range(20)), vectors)
        result = tree.range_search(np.zeros(3), 0.0)
        assert len(result) == 20

    def test_single_item(self):
        tree = VPTree(EuclideanDistance()).build([5], np.array([[1.0, 2.0]]))
        assert tree.knn_search(np.zeros(2), 3)[0].id == 5


class TestPruning:
    def test_prunes_on_low_dimensional_data(self, rng):
        linear, tree, _ = _build_pair(rng, n=500, dim=2)
        total_tree = 0
        for _ in range(10):
            query = rng.random(2)
            tree.knn_search(query, 5)
            total_tree += tree.last_stats.distance_computations
        assert total_tree < 0.5 * 10 * 500  # at least 2x fewer than scan

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
        tree = VPTree(counter).build(list(range(200)), vectors)
        counter.reset()
        tree.knn_search(rng.random(3), 5)
        assert counter.count == tree.last_stats.distance_computations
        counter.reset()
        tree.range_search(rng.random(3), 0.2)
        assert counter.count == tree.last_stats.distance_computations

    def test_build_stats_populated(self, rng):
        _, tree, _ = _build_pair(rng, n=200)
        stats = tree.build_stats
        assert stats.n_nodes > 0
        assert stats.n_leaves > 0
        assert stats.depth > 0
        assert stats.distance_computations > 0

    def test_pruned_plus_visited_accounting(self, rng):
        _, tree, _ = _build_pair(rng, n=300, dim=2)
        tree.range_search(rng.random(2), 0.05)
        stats = tree.last_stats
        assert stats.nodes_pruned > 0  # tight radius must prune something


class TestApproximation:
    def test_epsilon_zero_is_exact(self, rng):
        linear, tree, _ = _build_pair(rng)
        query = rng.random(3)
        exact = tree.knn_search_approximate(query, 5, epsilon=0.0)
        reference = linear.knn_search(query, 5)
        assert [n.id for n in exact] == [n.id for n in reference]

    def test_epsilon_bound_holds(self, rng):
        linear, tree, _ = _build_pair(rng, n=400, dim=4)
        epsilon = 0.5
        for _ in range(10):
            query = rng.random(4)
            true_kth = linear.knn_search(query, 5)[-1].distance
            approx = tree.knn_search_approximate(query, 5, epsilon=epsilon)
            assert len(approx) == 5
            # Every reported neighbour within (1 + eps) of the true k-th.
            assert approx[-1].distance <= (1.0 + epsilon) * true_kth + 1e-12

    def test_epsilon_reduces_cost(self, rng):
        _, tree, _ = _build_pair(rng, n=600, dim=6)
        query = rng.random(6)
        tree.knn_search(query, 5)
        exact_cost = tree.last_stats.distance_computations
        tree.knn_search_approximate(query, 5, epsilon=2.0)
        approx_cost = tree.last_stats.distance_computations
        assert approx_cost <= exact_cost

    def test_budget_respected(self, rng):
        _, tree, _ = _build_pair(rng, n=400, dim=6)
        budget = 50
        result = tree.knn_search_approximate(
            rng.random(6), 5, max_distance_computations=budget
        )
        # Budget may be exceeded by at most the final in-flight leaf item.
        assert tree.last_stats.distance_computations <= budget + 1
        assert len(result) <= 5

    def test_budget_still_returns_candidates(self, rng):
        _, tree, _ = _build_pair(rng, n=400, dim=6)
        result = tree.knn_search_approximate(
            rng.random(6), 5, max_distance_computations=100
        )
        assert len(result) == 5  # plenty of budget to fill k

    def test_validates_parameters(self, rng):
        _, tree, _ = _build_pair(rng)
        with pytest.raises(IndexingError):
            tree.knn_search_approximate(rng.random(3), 5, epsilon=-0.1)
        # NaN passes an `epsilon < 0` check and then fails every prune
        # test: one distance, one wrong neighbour, no error.
        for epsilon in (float("nan"), float("inf")):
            with pytest.raises(IndexingError, match="finite"):
                tree.knn_search_approximate(rng.random(3), 5, epsilon=epsilon)
        with pytest.raises(IndexingError):
            tree.knn_search_approximate(rng.random(3), 0)
        with pytest.raises(IndexingError):
            tree.knn_search_approximate(rng.random(3), 5, max_distance_computations=0)


class TestConfiguration:
    def test_rejects_non_metric(self):
        with pytest.raises(IndexingError, match="triangle inequality"):
            VPTree(ChiSquareDistance())

    @pytest.mark.parametrize("leaf_size", [float("nan"), 2.5, 0], ids=["nan", "2.5", "0"])
    @pytest.mark.parametrize("tree", [VPTree, KDTree, GNAT], ids=["vptree", "kdtree", "gnat"])
    def test_rejects_bad_leaf_size(self, tree, leaf_size):
        # NaN passes a ``< 1`` check and then breaks or degrades the
        # build (a bare IndexError, one leaf, a misleading split error);
        # a fraction is no bucket size.  Both are refused at construction.
        with pytest.raises(IndexingError, match="leaf_size must be an integer"):
            tree(EuclideanDistance(), leaf_size=leaf_size)

    @pytest.mark.parametrize("value", [float("nan"), 2.5, 0], ids=["nan", "2.5", "0"])
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: MTree(EuclideanDistance(), capacity=v), "capacity"),
            (lambda v: LAESAIndex(EuclideanDistance(), n_pivots=v), "n_pivots"),
            (lambda v: AntipoleTree(EuclideanDistance(), tournament_size=v),
             "tournament_size"),
            (lambda v: AntipoleTree(EuclideanDistance(), final_round_size=v),
             "final_round_size"),
            (lambda v: MaxVariancePivot(n_candidates=v), "n_candidates"),
            (lambda v: MaxVariancePivot(sample_size=v), "sample_size"),
        ],
        ids=["mtree-capacity", "laesa-n_pivots", "antipole-tournament_size",
             "antipole-final_round_size", "variance-n_candidates",
             "variance-sample_size"],
    )
    def test_rejects_bad_count_parameter(self, make, name, value):
        # The other count parameters of the index layer, checked the same
        # way: NaN built an M-tree that scans every row per k-NN, a LAESA
        # index and an Antipole tree whose build later died on it.
        with pytest.raises(IndexingError, match=f"{name} must be an integer"):
            make(value)

    def test_leaf_size_one_still_exact(self, rng):
        vectors = rng.random((60, 3))
        ids = list(range(60))
        tree = VPTree(EuclideanDistance(), leaf_size=1).build(ids, vectors)
        linear = LinearScanIndex(EuclideanDistance()).build(ids, vectors)
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 6)] == [
            n.id for n in linear.knn_search(query, 6)
        ]

    def test_deterministic_given_seed(self, rng):
        vectors = rng.random((100, 3))
        ids = list(range(100))
        a = VPTree(EuclideanDistance(), seed=7).build(ids, vectors)
        b = VPTree(EuclideanDistance(), seed=7).build(ids, vectors)
        query = rng.random(3)
        a.knn_search(query, 5)
        b.knn_search(query, 5)
        assert (
            a.last_stats.distance_computations == b.last_stats.distance_computations
        )

    @pytest.mark.parametrize(
        "strategy", [RandomPivot(), MaxVariancePivot()], ids=["random", "variance"]
    )
    def test_pivot_strategies_stay_exact(self, rng, strategy):
        vectors = rng.random((120, 3))
        ids = list(range(120))
        tree = VPTree(EuclideanDistance(), pivot_strategy=strategy).build(ids, vectors)
        linear = LinearScanIndex(EuclideanDistance()).build(ids, vectors)
        query = rng.random(3)
        assert [n.id for n in tree.knn_search(query, 5)] == [
            n.id for n in linear.knn_search(query, 5)
        ]


class TestIntervalGap:
    def test_inside_interval_is_zero(self):
        assert _interval_gap(0.5, 0.2, 0.8) == 0.0

    def test_below_interval(self):
        assert _interval_gap(0.1, 0.4, 0.8) == pytest.approx(0.3)

    def test_above_interval(self):
        assert _interval_gap(1.0, 0.4, 0.8) == pytest.approx(0.2)


class TestTreeMemory:
    def test_built_tree_owns_one_copy_of_the_rows(self, rng):
        """The tree is the index core's row block plus eight per-node
        columns.

        The object-graph tree once kept a full copy of the data alive
        per level (``pivot_vector`` viewed its level's temporary) and
        the first flat tree a tree-ordered block *beside* the id-ordered
        core; now the core itself is in tree order and the tree owns no
        row array of its own, nor an id list — only 1-D node columns of
        8 bytes an entry.
        """
        n, dim = 4000, 16
        tree = VPTree(EuclideanDistance()).build(list(range(n)), rng.random((n, dim)))
        columns = ("_start", "_stop", "_inside", "_outside",
                   "_in_low", "_in_high", "_out_low", "_out_high")
        arrays = {
            name for name, value in vars(tree).items() if isinstance(value, np.ndarray)
        }
        # `_vectors` is the base class's read-only view of the index core.
        assert arrays == {"_vectors", *columns}
        assert np.shares_memory(tree._vectors, tree._core.view())
        assert tree._core.capacity == n  # the adopted block, not a grown copy
        n_entries = tree.build_stats.n_nodes + tree.build_stats.n_leaves
        assert tree._ids.shape == (n,)  # the id -> row map's column, no list
        assert not any(
            isinstance(value, list) and len(value) == n for value in vars(tree).values()
        )
        for name in columns:
            column = getattr(tree, name)
            assert column.shape == (n_entries,) and column.itemsize == 8
