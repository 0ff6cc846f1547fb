"""T6 — Antipole cluster-diameter threshold ablation.

The Antipole tree's one tuning knob is the cluster diameter bound: small
thresholds give many tight clusters (deep tree, expensive build, precise
pruning), large thresholds give few loose clusters (cheap build, coarse
pruning, more leaf scanning).  This sweep quantifies the tradeoff.

Expected shape: build cost falls as the threshold grows; query cost is
U-shaped-ish - very tight and very loose clusterings both query worse
than a mid-range threshold (the paper's default regime).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table, run_knn_workload
from repro.index.antipole import AntipoleTree
from repro.metrics.minkowski import EuclideanDistance

_N = 2048
_K = 10
_N_QUERIES = 20
_FRACTIONS = (0.1, 0.2, 0.3, 0.5, 0.7)


def test_t6_threshold_ablation(clustered_vectors):
    vectors = clustered_vectors[:_N]
    ids = list(range(_N))
    queries, _ = gaussian_clusters(
        _N_QUERIES, vectors.shape[1], n_clusters=16, cluster_std=0.04, seed=81
    )

    rows = []
    query_costs = {}
    build_costs = {}
    for fraction in _FRACTIONS:
        tree = AntipoleTree(
            EuclideanDistance(), diameter_fraction=fraction
        ).build(ids, vectors)
        result = run_knn_workload(tree, queries, _K)
        build_costs[fraction] = tree.build_stats.distance_computations
        query_costs[fraction] = result.mean_distance_computations
        rows.append(
            [
                fraction,
                tree.effective_diameter_threshold,
                tree.build_stats.distance_computations,
                tree.build_stats.n_leaves,
                tree.build_stats.depth,
                result.mean_distance_computations,
                result.mean_distance_computations / _N,
            ]
        )
    print_experiment(
        ascii_table(
            [
                "diam fraction",
                "threshold",
                "build dists",
                "leaves",
                "depth",
                "query dists",
                "fraction of scan",
            ],
            rows,
            title=f"T6: Antipole diameter-threshold ablation (N={_N}, k={_K})",
        )
    )

    # Shape checks: build gets cheaper as clusters loosen; every setting
    # still beats the scan on clustered data.
    assert build_costs[0.7] < build_costs[0.1]
    for fraction in _FRACTIONS:
        assert query_costs[fraction] < _N
