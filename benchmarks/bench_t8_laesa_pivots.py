"""T8 — LAESA pivot-count ablation and tree-vs-table comparison.

LAESA's knob is the number of pivots ``m``: each query pays ``m``
mandatory pivot evaluations, and in exchange the per-object lower bound
tightens, eliminating more true-distance computations.

Expected shape: total query cost is U-shaped in m - too few pivots leave
the bound loose (many survivors), too many waste mandatory evaluations;
near the optimum LAESA is competitive with (often better than) the
trees, at O(n·m) extra memory - the trade the 1994 papers debated.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table, run_knn_workload
from repro.index.antipole import AntipoleTree
from repro.index.laesa import LAESAIndex
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_N = 2048
_K = 10
_N_QUERIES = 20
_PIVOT_COUNTS = (2, 4, 8, 16, 32, 64)


def test_t8_laesa_pivot_sweep(clustered_vectors):
    vectors = clustered_vectors[:_N]
    ids = list(range(_N))
    queries, _ = gaussian_clusters(
        _N_QUERIES, vectors.shape[1], n_clusters=16, cluster_std=0.04, seed=82
    )
    metric = EuclideanDistance()

    rows = []
    costs = {}
    for m in _PIVOT_COUNTS:
        laesa = LAESAIndex(metric, n_pivots=m).build(ids, vectors)
        result = run_knn_workload(laesa, queries, _K)
        costs[m] = result.mean_distance_computations
        rows.append(
            [
                f"laesa m={m}",
                result.mean_distance_computations,
                m,
                result.mean_distance_computations - m,
                result.mean_distance_computations / _N,
            ]
        )

    for name, index in (
        ("vptree", VPTree(metric).build(ids, vectors)),
        ("antipole", AntipoleTree(metric).build(ids, vectors)),
    ):
        result = run_knn_workload(index, queries, _K)
        rows.append(
            [name, result.mean_distance_computations, "-", "-",
             result.mean_distance_computations / _N]
        )

    print_experiment(
        ascii_table(
            ["index", "mean dists/query", "pivot evals", "candidate evals",
             "fraction of scan"],
            rows,
            title=f"T8: LAESA pivot-count ablation vs trees (N={_N}, k={_K})",
        )
    )

    # Shape checks: candidate evaluations shrink monotonically with m;
    # the best m beats the scan by a wide margin.
    assert costs[64] - 64 < costs[2] - 2
    assert min(costs.values()) < 0.4 * _N
