"""F8 — GEMINI filter-and-refine: cost vs reduced dimensionality.

The filter-and-refine tradeoff on 32-D signatures whose variance is
concentrated (rank ~6 plus noise — the spectrum real image features
have): sweep the reduced dimensionality and report the retained
variance, the filter's candidate ratio, the number of *full-metric*
distance computations per k-NN query, and the measured false-dismissal
count against linear-scan ground truth.

Expected shape: KL retains most variance in a handful of axes, so the
candidate ratio collapses quickly with the reduced dimensionality while
false dismissals stay at exactly zero at every dimensionality (the
contractive guarantee).  FastMap tracks KL closely on this (Euclidean)
data but is heuristic: its violations, if any, are small and reported,
not silently absorbed.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_experiment
from repro.eval.harness import ascii_table
from repro.index.filter_refine import FilterRefineIndex
from repro.index.linear import LinearScanIndex
from repro.metrics.minkowski import EuclideanDistance
from repro.reduce import FastMap, KLTransform, contractiveness_violations

_N = 1024
_DIM = 32
_RANK = 6
_K = 10
_N_QUERIES = 20
_REDUCED_DIMS = (1, 2, 4, 8, 16)


def _correlated(n, seed):
    """Rank-limited signatures; one fixed basis so queries share the
    database's subspace (a query drawn from a different basis would be
    near-equidistant from everything and no index could help)."""
    basis = np.random.default_rng(42).normal(size=(_RANK, _DIM))
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(n, _RANK)) * np.linspace(6.0, 1.0, _RANK)
    return weights @ basis + rng.normal(0.0, 0.05, (n, _DIM))


def _false_dismissals(index, linear, queries, k):
    count = 0
    for query in queries:
        truth = {n.id for n in linear.knn_search(query, k)}
        got = {n.id for n in index.knn_search(query, k)}
        count += len(truth - got)
    return count


def test_f8_filter_refine_table():
    vectors = _correlated(_N, seed=5)
    queries = _correlated(_N_QUERIES, seed=55)
    ids = list(range(_N))
    metric = EuclideanDistance()
    linear = LinearScanIndex(metric).build(ids, vectors)

    rows = []
    refine_cost = {}
    for reduced_dim in _REDUCED_DIMS:
        for reducer_name, make_reducer in (
            ("kl", lambda d=reduced_dim: KLTransform(d)),
            ("fastmap", lambda d=reduced_dim: FastMap(d, seed=3)),
        ):
            reducer = make_reducer()
            index = FilterRefineIndex(metric, reducer).build(ids, vectors)
            costs, ratios = [], []
            for query in queries:
                index.knn_search(query, _K)
                costs.append(index.last_stats.distance_computations)
                ratios.append(index.last_candidate_ratio)
            dismissals = _false_dismissals(index, linear, queries, _K)
            violation_rate, _ = contractiveness_violations(
                reducer, vectors, metric, n_pairs=300
            )
            quality = (
                reducer.explained_variance_ratio
                if isinstance(reducer, KLTransform)
                else 1.0 - reducer.stress(vectors)
            )
            refine_cost[(reducer_name, reduced_dim)] = float(np.mean(costs))
            rows.append(
                [
                    reducer_name,
                    reduced_dim,
                    quality,
                    float(np.mean(ratios)),
                    float(np.mean(costs)),
                    violation_rate,
                    dismissals,
                ]
            )
    print_experiment(
        ascii_table(
            [
                "reducer",
                "dim",
                "quality",
                "cand. ratio",
                "full dists/query",
                "violations",
                "false dismissals",
            ],
            rows,
            title=f"F8: GEMINI filter-and-refine - N={_N}, {_DIM}-D rank-{_RANK} "
            f"signatures, k={_K} (scan = {_N} dists/query; "
            "quality = KL variance kept / 1 - FastMap stress)",
        )
    )

    # Shape checks.  KL: exact at every dimensionality, and the filter
    # tightens monotonically until the intrinsic rank is covered.
    for reduced_dim in _REDUCED_DIMS:
        index = FilterRefineIndex(metric, KLTransform(reduced_dim)).build(ids, vectors)
        assert _false_dismissals(index, linear, queries, _K) == 0
    assert refine_cost[("kl", 8)] < refine_cost[("kl", 1)]
    # Once the intrinsic rank is covered the filter is sharp: candidates
    # cost an order of magnitude less than the scan.
    assert refine_cost[("kl", 8)] < 0.15 * _N


@pytest.mark.parametrize("reduced_dim", _REDUCED_DIMS)
def test_f8_range_query_no_false_dismissals(reduced_dim):
    """The contractive guarantee, checked for range queries too."""
    vectors = _correlated(_N, seed=5)
    queries = _correlated(5, seed=56)
    ids = list(range(_N))
    metric = EuclideanDistance()
    linear = LinearScanIndex(metric).build(ids, vectors)
    index = FilterRefineIndex(metric, KLTransform(reduced_dim)).build(ids, vectors)
    for query in queries:
        radius = linear.knn_search(query, 20)[-1].distance
        truth = {n.id for n in linear.range_search(query, radius)}
        got = {n.id for n in index.range_search(query, radius)}
        assert got == truth
