"""F11 — Tree vectorization: batched build and search vs the scalar era.

PR 1 made flat scans fast but left the metric trees paying one
interpreted ``Metric.distance`` call per stored vector during both
construction and traversal.  This experiment measures what routing the
tree hot loops through ``distance_batch`` buys: build wall-clock and
k-NN throughput per tree, **scalar** (the metric's vectorized kernel
hidden, so every batched call site degrades to the per-row loop — the
scalar-era cost model) vs **batched** (the kernels on).  Every tree has
one traversal behind ``knn_search`` and ``knn_search_batch``, so the
batch entry point is checked for identical answers but not timed as a
column of its own.

Scalar-era baseline, measured on the pre-vectorization implementation
(commit ``ea6ecbf``, n=2000, d=64, L2, k=10, 50 queries, one warm run):

=========  =============  ==========
index      build seconds  k-NN q/s
=========  =============  ==========
vptree     0.157          135.5
gnat       0.511          132.3
mtree      0.253          113.8
antipole   0.761          146.9
kdtree     0.019          101.7
=========  =============  ==========

Reproduction checks: the batched VP-tree is >= 3x on both build and
k-NN wall-clock at this size, and every path returns bit-identical
answers with bit-identical cost counters.  Results are also written to
``benchmarks/BENCH_f11_tree_vectorization.json`` so the perf trajectory
is machine-readable.

``REPRO_BENCH_N`` shrinks the dataset for CI smoke runs (kernel
regressions still surface as parity failures; the wall-clock assertions
only apply at full size, where timing is meaningful).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.harness import ascii_table
from repro.index.antipole import AntipoleTree
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.mtree import MTree
from repro.index.vptree import VPTree
from repro.metrics.base import hide_batch_kernel
from repro.metrics.minkowski import EuclideanDistance

_N = int(os.environ.get("REPRO_BENCH_N", "2000"))
_FULL_SIZE = _N >= 2000
_DIM = 64
_N_QUERIES = max(4, _N // 40)
_K = 10

_JSON_PATH = Path(__file__).parent / "BENCH_f11_tree_vectorization.json"


def _factories():
    return {
        "vptree": lambda m: VPTree(m),
        "gnat": lambda m: GNAT(m),
        "mtree": lambda m: MTree(m, promotion="maxdist"),
        "antipole": lambda m: AntipoleTree(m),
        "kdtree": lambda m: KDTree(m),
    }


def _dataset():
    from repro.eval.datasets import gaussian_clusters

    vectors, _ = gaussian_clusters(_N, _DIM, n_clusters=16, cluster_std=0.05, seed=42)
    queries, _ = gaussian_clusters(
        _N_QUERIES, _DIM, n_clusters=16, cluster_std=0.05, seed=43
    )
    return vectors, queries


#: Wall-clock measurements take the best of this many repetitions: the
#: individual builds are tens of milliseconds, where a single GC pause
#: or page fault can double a reading.
_REPEATS = 3


def _timed(run):
    best = np.inf
    for _ in range(_REPEATS):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return result, best


def test_f11_tree_vectorization(benchmark):
    vectors, queries = _dataset()
    ids = list(range(_N))

    rows = []
    report: dict[str, dict] = {}
    for name, factory in _factories().items():
        scalar_index, scalar_build = _timed(
            lambda: factory(hide_batch_kernel(EuclideanDistance())).build(ids, vectors)
        )
        batch_index, batch_build = _timed(
            lambda: factory(EuclideanDistance()).build(ids, vectors)
        )
        assert (
            scalar_index.build_stats.distance_computations
            == batch_index.build_stats.distance_computations
        )

        def run_queries(index):
            results, stats = [], []
            for query in queries:
                results.append(index.knn_search(query, _K))
                stats.append(index.last_stats)
            return results, stats

        (scalar_results, scalar_stats), scalar_seconds = _timed(
            lambda: run_queries(scalar_index)
        )
        (batch_results, batch_stats), batch_seconds = _timed(
            lambda: run_queries(batch_index)
        )

        # Bit-identity across both cost models and both entry points:
        # ids, distance floats, and per-query cost counters.
        assert batch_results == scalar_results
        assert batch_stats == scalar_stats
        assert batch_index.knn_search_batch(queries, _K) == scalar_results
        assert batch_index.last_batch_stats == scalar_stats

        build_speedup = scalar_build / batch_build
        knn_speedup = scalar_seconds / batch_seconds
        rows.append(
            [
                name,
                scalar_build,
                batch_build,
                build_speedup,
                _N_QUERIES / scalar_seconds,
                _N_QUERIES / batch_seconds,
                knn_speedup,
            ]
        )
        report[name] = {
            "build_seconds_scalar": scalar_build,
            "build_seconds_batched": batch_build,
            "build_speedup": build_speedup,
            "build_distance_computations": batch_index.build_stats.distance_computations,
            "knn_qps_scalar": _N_QUERIES / scalar_seconds,
            "knn_qps_batched": _N_QUERIES / batch_seconds,
            "knn_speedup": knn_speedup,
            "query_distance_computations": sum(
                stats.distance_computations for stats in batch_stats
            ),
        }

    print_experiment(
        ascii_table(
            [
                "index",
                "build(s) scalar",
                "build(s) batched",
                "build x",
                "q/s scalar",
                "q/s batched",
                "knn x",
            ],
            rows,
            title=(
                f"F11: tree build + k-NN (k={_K}), scalar vs batched kernels - "
                f"N={_N}, d={_DIM}, {_N_QUERIES} queries (identical results)"
            ),
        )
    )

    if _FULL_SIZE:
        # Tiny smoke runs (REPRO_BENCH_N) don't pollute the trajectory:
        # only full-size measurements are worth recording.
        _JSON_PATH.write_text(
            json.dumps(
                {
                    "experiment": "f11_tree_vectorization",
                    "n": _N,
                    "dim": _DIM,
                    "n_queries": _N_QUERIES,
                    "k": _K,
                    "metric": "L2",
                    "indexes": report,
                },
                indent=1,
            )
            + "\n"
        )
        # The headline acceptance numbers: vectorizing the tree layer
        # must buy the VP-tree at least 3x on both axes at this size.
        assert report["vptree"]["build_speedup"] >= 3.0
        assert report["vptree"]["knn_speedup"] >= 3.0

    index = VPTree(EuclideanDistance()).build(ids, vectors)
    benchmark(lambda: index.knn_search_batch(queries, _K))
