"""F2 — The curse of dimensionality.

Query cost vs. feature dimensionality on two data regimes:

* **uniform** vectors - intrinsic dimensionality grows with the
  embedding dimension, and triangle-inequality pruning decays until the
  tree costs as much as the scan (the classic negative result);
* **clustered** vectors - intrinsic dimensionality stays low no matter
  the embedding dimension, and the tree keeps winning.  Real image
  signatures live in this regime, which is why metric indexing is
  viable for CBIR at all.

The table reports the Chavez intrinsic-dimensionality estimate
(rho = mu^2 / 2 sigma^2) alongside cost, making the mechanism visible.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import gaussian_clusters, uniform_vectors
from repro.eval.harness import ascii_table, run_knn_workload
from repro.eval.stats import intrinsic_dimensionality
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_DIMS = (2, 4, 8, 16, 32)
_N = 1024
_K = 10
_N_QUERIES = 15


def _dataset(kind: str, dim: int, seed: int) -> np.ndarray:
    if kind == "uniform":
        return uniform_vectors(_N, dim, seed=seed)
    vectors, _ = gaussian_clusters(_N, dim, n_clusters=12, cluster_std=0.05, seed=seed)
    return vectors


def test_f2_dimensionality_table():
    metric = EuclideanDistance()
    rows = []
    fractions = {}
    for kind in ("uniform", "clustered"):
        for dim in _DIMS:
            data = _dataset(kind, dim, seed=5)
            queries = _dataset(kind, dim, seed=55)[:_N_QUERIES]
            tree = VPTree(metric).build(list(range(_N)), data)
            result = run_knn_workload(tree, queries, _K)
            fraction = result.mean_distance_computations / _N
            fractions[(kind, dim)] = fraction
            rho = intrinsic_dimensionality(metric, data, seed=0)
            rows.append([kind, dim, rho, result.mean_distance_computations, fraction])
    print_experiment(
        ascii_table(
            ["data", "dim", "intrinsic dim", "mean dists/query", "fraction of scan"],
            rows,
            title=f"F2: VP-tree k-NN cost vs dimensionality (N={_N}, k={_K})",
        )
    )
    # Reproduction checks: pruning decays with dim on uniform data and
    # survives on clustered data.
    assert fractions[("uniform", 2)] < 0.3
    assert fractions[("uniform", 32)] > 0.9  # the curse
    assert fractions[("clustered", 32)] < 0.8  # clusters save you
    assert fractions[("clustered", 32)] < fractions[("uniform", 32)]
