"""T9 — M-tree page capacity and split-promotion ablation.

The M-tree is the only *dynamic* index in the roster, and the only one
whose pages model disk I/O directly.  This experiment sweeps page
capacity x promotion policy at N=2048 and reports, per configuration:
build cost (distance computations, splits), tree shape (pages, height),
and query cost (distance computations and page reads for k=10).

Expected shape: the informed promotions (mmrad, maxdist) buy fewer
query-time distance computations than random promotion at equal
capacity, at a higher build cost (mmrad is quadratic in page size at
each split); larger pages mean fewer page reads but more distances per
visited page — the classic B-tree-style fan-out tradeoff.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table, run_knn_workload
from repro.index.mtree import MTree, PROMOTION_POLICIES
from repro.metrics.minkowski import EuclideanDistance

_N = 2048
_K = 10
_N_QUERIES = 20
_CAPACITIES = (4, 8, 16, 32)


def _data():
    vectors, _ = gaussian_clusters(_N, 16, n_clusters=16, cluster_std=0.04, seed=7)
    queries, _ = gaussian_clusters(
        _N_QUERIES, 16, n_clusters=16, cluster_std=0.04, seed=77
    )
    return vectors, queries


def test_t9_mtree_ablation_table():
    vectors, queries = _data()
    ids = list(range(_N))

    rows = []
    query_cost = {}
    build_cost = {}
    for promotion in PROMOTION_POLICIES:
        for capacity in _CAPACITIES:
            tree = MTree(
                EuclideanDistance(), capacity=capacity, promotion=promotion
            ).build(ids, vectors)
            result = run_knn_workload(tree, queries, _K)
            pages_read = result.mean_nodes_visited + np.mean(
                [s.leaves_visited for s in result.stats]
            )
            query_cost[(promotion, capacity)] = result.mean_distance_computations
            build_cost[(promotion, capacity)] = tree.build_stats.distance_computations
            rows.append(
                [
                    promotion,
                    capacity,
                    tree.build_stats.distance_computations,
                    tree.n_pages,
                    tree.height,
                    tree.n_splits,
                    result.mean_distance_computations,
                    pages_read,
                ]
            )
    print_experiment(
        ascii_table(
            [
                "promotion",
                "capacity",
                "build dists",
                "pages",
                "height",
                "splits",
                "dists/query",
                "pages/query",
            ],
            rows,
            title=f"T9: M-tree ablation - N={_N}, 16-D clustered, k={_K}",
        )
    )

    # Shape checks: every configuration beats the scan; the informed
    # policy is no worse than random at the default capacity, and pays
    # for it with a costlier build.
    for key, cost in query_cost.items():
        assert cost < _N, key
    assert query_cost[("mmrad", 8)] <= 1.1 * query_cost[("random", 8)]
    assert build_cost[("mmrad", 8)] > build_cost[("random", 8)]
