"""F7 — Full index shootout: every structure, one workload.

All seven index structures answer the same k=10 workload over the same
2048 x 16-D clustered vectors.  Reported per index: build cost, query
cost in distance computations and speedup over the scan.
This is the summary figure the individual experiments (F1, F2, T4, T6,
T8, T9) drill into.

Expected shape: every metric tree lands well under the scan's 2048
distances per query; LAESA trades its large pivot-table memory for the
lowest distance counts; the kd-tree is competitive only because this
data has coordinates (see F2 for where that breaks); the GEMINI
filter-refine pipeline wins on *full-metric* evaluations by design since
it only refines filter survivors.
"""

from __future__ import annotations

from benchmarks.conftest import print_experiment
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table, run_knn_workload
from repro.index.antipole import AntipoleTree
from repro.index.filter_refine import FilterRefineIndex
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.laesa import LAESAIndex
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance
from repro.reduce import KLTransform

_N = 2048
_K = 10
_N_QUERIES = 20

_FACTORIES = {
    "linear": lambda: LinearScanIndex(EuclideanDistance()),
    "vptree": lambda: VPTree(EuclideanDistance()),
    "antipole": lambda: AntipoleTree(EuclideanDistance()),
    "mtree": lambda: MTree(EuclideanDistance(), capacity=8),
    "gnat": lambda: GNAT(EuclideanDistance(), degree=8),
    "laesa": lambda: LAESAIndex(EuclideanDistance(), n_pivots=16),
    "kdtree": lambda: KDTree(EuclideanDistance()),
    # 12 of 16 dims keeps ~98% of this data's variance; F8 sweeps the
    # reduced dimensionality properly on data with a sharper spectrum.
    "kl-filter": lambda: FilterRefineIndex(EuclideanDistance(), KLTransform(12)),
}


def _data():
    vectors, _ = gaussian_clusters(_N, 16, n_clusters=16, cluster_std=0.04, seed=7)
    queries, _ = gaussian_clusters(
        _N_QUERIES, 16, n_clusters=16, cluster_std=0.04, seed=77
    )
    return vectors, queries


def test_f7_shootout_table():
    vectors, queries = _data()
    ids = list(range(_N))

    rows = []
    dists_per_query = {}
    for name, factory in _FACTORIES.items():
        index = factory().build(ids, vectors)
        result = run_knn_workload(index, queries, _K)
        dists_per_query[name] = result.mean_distance_computations
        rows.append(
            [
                name,
                index.build_stats.distance_computations,
                result.mean_distance_computations,
                dists_per_query["linear"] / result.mean_distance_computations
                if result.mean_distance_computations
                else float("inf"),
            ]
        )
    print_experiment(
        ascii_table(
            ["index", "build dists", "dists/query", "speedup"],
            rows,
            title=f"F7: index shootout - N={_N}, 16-D clustered, k={_K} "
            "(kl-filter counts full-metric refines only)",
        )
    )

    # Shape checks: the scan is exactly N; every alternative beats it.
    assert dists_per_query["linear"] == _N
    for name, cost in dists_per_query.items():
        if name != "linear":
            assert cost < 0.7 * _N, name
    # The new structures must be in the same league as the established ones.
    assert dists_per_query["mtree"] < 0.5 * _N
    assert dists_per_query["gnat"] < 0.5 * _N
