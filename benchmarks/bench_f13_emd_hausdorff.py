"""F13 — The last loop-fallback metrics get kernels: EMD and Hausdorff.

After the tree-vectorization and serving PRs, the match distance (1-D
EMD via CDF L1) and the Hausdorff distance were the only shipped metrics
still served by the per-row ``distance_batch`` loop fallback — every
tree query over them forfeited the kernel throughput the other metrics
enjoy.  This experiment measures what their new vectorized kernels buy:

* **metric sweeps** — ``distance_batch`` over the full table, kernel vs
  loop fallback (``hide_batch_kernel``), for EMD, circular EMD, and
  Hausdorff over ragged NaN-padded point buffers;
* **batched tree queries** — GNAT and kd-tree batched range queries
  (separate shared traversals when this experiment was added; since the
  flat-layout PR the one loop per tree behind every entry point) and
  GNAT k-NN batches over EMD, against the scalar-era cost model (kernel
  hidden, per-query loops).

Reproduction checks (full size only): the EMD kernel sweep is >= 3x the
loop fallback at n=2000 d=64 and the Hausdorff kernel >= 2x; every path
returns bit-identical answers with bit-identical per-query cost
counters.  Results land in ``benchmarks/BENCH_f13_emd_hausdorff.json``
so the perf trajectory is machine-readable.

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
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.metrics.base import hide_batch_kernel
from repro.metrics.emd import MatchDistance
from repro.metrics.hausdorff import HausdorffDistance
from repro.metrics.minkowski import EuclideanDistance

_N = int(os.environ.get("REPRO_BENCH_N", "2000"))
_FULL_SIZE = _N >= 2000
_DIM = 64
_POINT_DIM = 2
_N_QUERIES = max(4, _N // 100)
_K = 10

_JSON_PATH = Path(__file__).parent / "BENCH_f13_emd_hausdorff.json"

#: Wall-clock measurements take the best of this many repetitions.
_REPEATS = 3


def _timed(run):
    best = np.inf
    for _ in range(_REPEATS):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return result, best


def _histogram_dataset():
    rng = np.random.default_rng(131)
    vectors = rng.random((_N, _DIM))
    queries = rng.random((_N_QUERIES, _DIM))
    return vectors, queries


def _point_set_dataset():
    """Ragged point sets packed as NaN-padded flat buffers."""
    rng = np.random.default_rng(132)
    max_points = _DIM // _POINT_DIM
    buffers = np.full((_N, _DIM), np.nan)
    for i in range(_N):
        count = int(rng.integers(3, max_points + 1))
        buffers[i, : count * _POINT_DIM] = rng.random(count * _POINT_DIM)
    queries = np.full((_N_QUERIES, _DIM), np.nan)
    for i in range(_N_QUERIES):
        count = int(rng.integers(3, max_points + 1))
        queries[i, : count * _POINT_DIM] = rng.random(count * _POINT_DIM)
    return buffers, queries


def _sweep(metric, queries, vectors):
    return [metric.distance_batch(query, vectors) for query in queries]


def test_f13_emd_hausdorff(benchmark):
    histograms, histogram_queries = _histogram_dataset()
    buffers, buffer_queries = _point_set_dataset()

    cases = [
        ("emd", MatchDistance(), histograms, histogram_queries, 3.0),
        ("circular_emd", MatchDistance(circular=True), histograms, histogram_queries, 3.0),
        ("hausdorff", HausdorffDistance(point_dim=_POINT_DIM), buffers, buffer_queries, 2.0),
    ]

    rows = []
    report: dict[str, dict] = {}
    for name, metric, vectors, queries, required in cases:
        fallback = hide_batch_kernel(metric)
        scalar_sweeps, scalar_seconds = _timed(
            lambda: _sweep(fallback, queries, vectors)
        )
        kernel_sweeps, kernel_seconds = _timed(lambda: _sweep(metric, queries, vectors))
        for scalar_row, kernel_row in zip(scalar_sweeps, kernel_sweeps):
            assert np.array_equal(scalar_row, kernel_row)
        speedup = scalar_seconds / kernel_seconds
        rows.append(
            [
                name,
                _N_QUERIES * _N / scalar_seconds,
                _N_QUERIES * _N / kernel_seconds,
                speedup,
            ]
        )
        report[name] = {
            "rows_per_second_scalar": _N_QUERIES * _N / scalar_seconds,
            "rows_per_second_kernel": _N_QUERIES * _N / kernel_seconds,
            "kernel_speedup": speedup,
            "required_speedup": required,
        }

    print_experiment(
        ascii_table(
            ["metric", "rows/s scalar", "rows/s kernel", "kernel x"],
            rows,
            title=(
                f"F13: distance_batch sweeps, loop fallback vs kernel - "
                f"N={_N}, d={_DIM}, {_N_QUERIES} queries (identical floats)"
            ),
        )
    )

    # ------------------------------------------------------------------
    # Shared tree traversals over the freed metrics
    # ------------------------------------------------------------------
    ids = list(range(_N))
    emd = MatchDistance()
    radius = 0.35

    gnat = GNAT(emd, degree=8).build(ids, histograms)
    scalar_range, scalar_range_stats = [], []
    for query in histogram_queries:
        scalar_range.append(gnat.range_search(query, radius))
        scalar_range_stats.append(gnat.last_stats)
    scalar_knn = [gnat.knn_search(query, _K) for query in histogram_queries]

    # The scalar-era cost model: kernel hidden, per-query entry points.
    gnat_hidden = GNAT(hide_batch_kernel(emd), degree=8).build(ids, histograms)
    _, hidden_range_seconds = _timed(
        lambda: [gnat_hidden.range_search(q, radius) for q in histogram_queries]
    )
    batch_range, shared_range_seconds = _timed(
        lambda: gnat.range_search_batch(histogram_queries, radius)
    )
    assert batch_range == scalar_range
    assert gnat.last_batch_stats == scalar_range_stats
    batch_knn, _ = _timed(lambda: gnat.knn_search_batch(histogram_queries, _K))
    assert batch_knn == scalar_knn

    gnat_speedup = hidden_range_seconds / shared_range_seconds
    report["gnat_range_emd"] = {
        "qps_scalar_era": _N_QUERIES / hidden_range_seconds,
        "qps_shared_batch": _N_QUERIES / shared_range_seconds,
        "speedup": gnat_speedup,
        "range_distance_computations": sum(
            stats.distance_computations for stats in gnat.last_batch_stats
        ),
    }

    l2 = EuclideanDistance()
    kd = KDTree(l2).build(ids, histograms)
    kd_radius = 2.4
    kd_scalar_range, kd_scalar_stats = [], []
    for query in histogram_queries:
        kd_scalar_range.append(kd.range_search(query, kd_radius))
        kd_scalar_stats.append(kd.last_stats)
    kd_hidden = KDTree(hide_batch_kernel(l2)).build(ids, histograms)
    _, kd_hidden_seconds = _timed(
        lambda: [kd_hidden.range_search(q, kd_radius) for q in histogram_queries]
    )
    kd_batch_range, kd_shared_seconds = _timed(
        lambda: kd.range_search_batch(histogram_queries, kd_radius)
    )
    assert kd_batch_range == kd_scalar_range
    assert kd.last_batch_stats == kd_scalar_stats
    report["kdtree_range_l2"] = {
        "qps_scalar_era": _N_QUERIES / kd_hidden_seconds,
        "qps_shared_batch": _N_QUERIES / kd_shared_seconds,
        "speedup": kd_hidden_seconds / kd_shared_seconds,
    }

    print_experiment(
        ascii_table(
            ["path", "q/s scalar era", "q/s shared batch", "x"],
            [
                [
                    "gnat range (EMD)",
                    _N_QUERIES / hidden_range_seconds,
                    _N_QUERIES / shared_range_seconds,
                    gnat_speedup,
                ],
                [
                    "kdtree range (L2)",
                    _N_QUERIES / kd_hidden_seconds,
                    _N_QUERIES / kd_shared_seconds,
                    kd_hidden_seconds / kd_shared_seconds,
                ],
            ],
            title="F13: shared batched range traversals (identical results + counters)",
        )
    )

    if _FULL_SIZE:
        _JSON_PATH.write_text(
            json.dumps(
                {
                    "experiment": "f13_emd_hausdorff",
                    "n": _N,
                    "dim": _DIM,
                    "point_dim": _POINT_DIM,
                    "n_queries": _N_QUERIES,
                    "k": _K,
                    "paths": report,
                },
                indent=1,
            )
            + "\n"
        )
        # The headline acceptance numbers.
        assert report["emd"]["kernel_speedup"] >= 3.0
        assert report["hausdorff"]["kernel_speedup"] >= 2.0

    benchmark(lambda: _sweep(emd, histogram_queries, histograms))
