"""F3 — Range-query cost vs. search radius (selectivity sweep).

Radii are chosen to hit target selectivities from 1% to 50% of the
database (via the pairwise-distance quantile estimator), and each index
reports its mean distance computations.

Expected shape: cost rises monotonically with radius toward full-scan
cost; at small selectivities the trees answer with a small fraction of
the scan's work, and the Antipole tree's cluster-level pruning keeps it
competitive with the VP-tree throughout.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table, run_range_workload
from repro.eval.stats import estimate_radius_for_selectivity
from repro.index.antipole import AntipoleTree
from repro.index.linear import LinearScanIndex
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_SELECTIVITIES = (0.01, 0.05, 0.10, 0.20, 0.50)
_N = 2048
_N_QUERIES = 15


def test_f3_range_cost_table(clustered_vectors):
    metric = EuclideanDistance()
    vectors = clustered_vectors[:_N]
    ids = list(range(_N))
    queries, _ = gaussian_clusters(
        _N_QUERIES, vectors.shape[1], n_clusters=16, cluster_std=0.04, seed=78
    )

    indexes = {
        "linear": LinearScanIndex(metric).build(ids, vectors),
        "vptree": VPTree(metric).build(ids, vectors),
        "antipole": AntipoleTree(metric).build(ids, vectors),
    }

    rows = []
    costs = {}
    for selectivity in _SELECTIVITIES:
        radius = estimate_radius_for_selectivity(
            metric, vectors, selectivity, n_pairs=4000, seed=0
        )
        for name, index in indexes.items():
            result = run_range_workload(index, queries, radius)
            costs[(name, selectivity)] = result.mean_distance_computations
            rows.append(
                [
                    name,
                    selectivity,
                    radius,
                    result.mean_distance_computations,
                    result.mean_result_size,
                ]
            )
    print_experiment(
        ascii_table(
            ["index", "selectivity", "radius", "mean dists/query", "mean results"],
            rows,
            title=f"F3: range-query cost vs radius (N={_N}, clustered)",
        )
    )
    # Shape checks: monotone cost in radius; trees beat the scan at 1%.
    for name in ("vptree", "antipole"):
        assert costs[(name, 0.01)] <= costs[(name, 0.50)]
        assert costs[(name, 0.01)] < 0.6 * _N
