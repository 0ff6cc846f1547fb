"""T4 — Pivot-selection ablation for the VP-tree.

Same data, same queries, three vantage-point selection strategies:
random, max-spread (two-sweep farthest point), and max-variance
(Yianilos' criterion over samples).  Reports build cost and mean query
cost.

Expected shape: the variance criterion (Yianilos) should prune at least
as well as random pivots, at a build-time premium.  A finding this
ablation surfaces on clustered data: the pure farthest-point heuristic
(max-spread) can *lose* to random pivots - its extreme-outlier pivots
see most of the data inside one thin distance shell, which splits
poorly.  Variance, not distance, is what makes a good vantage point.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table, run_knn_workload
from repro.index.pivot import MaxSpreadPivot, MaxVariancePivot, RandomPivot
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_N = 2048
_K = 10
_N_QUERIES = 25

_STRATEGIES = {
    "random": RandomPivot,
    "max_spread": MaxSpreadPivot,
    "max_variance": MaxVariancePivot,
}


def test_t4_pivot_table(clustered_vectors):
    vectors = clustered_vectors[:_N]
    ids = list(range(_N))
    queries, _ = gaussian_clusters(
        _N_QUERIES, vectors.shape[1], n_clusters=16, cluster_std=0.04, seed=79
    )

    rows = []
    query_cost = {}
    for name, strategy_cls in _STRATEGIES.items():
        # Average over several build seeds so random pivots get a fair trial.
        build_costs = []
        query_costs = []
        for seed in range(3):
            tree = VPTree(
                EuclideanDistance(), pivot_strategy=strategy_cls(), seed=seed
            ).build(ids, vectors)
            build_costs.append(tree.build_stats.distance_computations)
            result = run_knn_workload(tree, queries, _K)
            query_costs.append(result.mean_distance_computations)
        query_cost[name] = float(np.mean(query_costs))
        rows.append(
            [name, float(np.mean(build_costs)), query_cost[name], query_cost[name] / _N]
        )
    print_experiment(
        ascii_table(
            ["pivot strategy", "build dists", "mean query dists", "fraction of scan"],
            rows,
            title=f"T4: VP-tree pivot ablation (N={_N}, k={_K}, clustered, 3 seeds)",
        )
    )
    # Shape check: the variance criterion should not lose to random
    # pivots.  (max_spread legitimately can - see the module docstring.)
    assert query_cost["max_variance"] <= query_cost["random"] * 1.1
