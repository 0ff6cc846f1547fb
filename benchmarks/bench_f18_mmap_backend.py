"""F18 — Memory-mapped backend: bounded residency at full parity.

PR 10 put index row storage behind the :class:`VectorBackend` protocol
(``docs/storage.md``): the default backend keeps cores in RAM, the
``mmap`` backend pages them through a fixed-capacity buffer pool on
disk, so a database larger than RAM serves with bounded resident
memory.  This benchmark prices that trade on the F7 shootout workload
and pins the two contract claims:

* **bit-identical answers** — every index family returns exactly the
  (id, distance) lists the memory backend returns, with identical
  counted distance computations (the metric kernels are row-independent,
  so block-chunked evaluation is the same arithmetic);
* **bounded residency** — the pool never holds more pages than its
  cap, asserted from the pool's own counters, while misses > 0 prove
  the workload actually cycled the pool.

Reported per index family: build time, mean query latency on both
backends, the latency ratio (the price of paging), and the pool
counters.  Results go to ``benchmarks/BENCH_f18_mmap_backend.json``
for the perf trajectory.  ``REPRO_BENCH_N`` shrinks the dataset for CI
smoke runs (parity and residency assertions still bite).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import print_experiment
from repro.db.backend import MemoryBackendFactory, MmapBackendFactory
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table, run_knn_workload
from repro.index.laesa import LAESAIndex
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_N = int(os.environ.get("REPRO_BENCH_N", "2048"))
_FULL_SIZE = _N >= 2048
_DIM = 16
_K = 10
_N_QUERIES = 20 if _FULL_SIZE else 6
_CACHE_PAGES = 8
_PAGE_RECORDS = 64

_JSON_PATH = Path(__file__).parent / "BENCH_f18_mmap_backend.json"

_FACTORIES = {
    "linear": lambda: LinearScanIndex(EuclideanDistance()),
    "laesa": lambda: LAESAIndex(EuclideanDistance(), n_pivots=16),
    "mtree": lambda: MTree(EuclideanDistance(), capacity=8),
    "vptree": lambda: VPTree(EuclideanDistance()),
}


def _data():
    vectors, _ = gaussian_clusters(
        _N, _DIM, n_clusters=16, cluster_std=0.04, seed=7
    )
    queries, _ = gaussian_clusters(
        _N_QUERIES, _DIM, n_clusters=16, cluster_std=0.04, seed=77
    )
    return vectors, queries


def _run_family(name, backend_factory, vectors, queries):
    index = _FACTORIES[name]()
    index.backend_factory = backend_factory
    start = time.perf_counter()
    index.build(list(range(_N)), vectors)
    build_s = time.perf_counter() - start
    result = run_knn_workload(index, queries, _K)
    answers = [
        [(n.id, n.distance) for n in index.knn_search(q, _K)]
        for q in queries
    ]
    return index, build_s, result, answers


def test_f18_mmap_backend_parity_and_residency(benchmark, tmp_path):
    vectors, queries = _data()
    rows_out = []
    report = {}

    for name in _FACTORIES:
        _mem_index, mem_build, mem_result, mem_answers = _run_family(
            name, MemoryBackendFactory(), vectors, queries
        )
        mmap_factory = MmapBackendFactory(
            tmp_path / name, cache_pages=_CACHE_PAGES, page_records=_PAGE_RECORDS
        )
        mmap_index, mmap_build, mmap_result, mmap_answers = _run_family(
            name, mmap_factory, vectors, queries
        )

        # Contract claim 1: bit-identical answers, identical counted cost.
        assert mmap_answers == mem_answers, f"{name}: results diverge"
        assert (
            mmap_result.mean_distance_computations
            == mem_result.mean_distance_computations
        ), f"{name}: counted distances diverge"

        # Contract claim 2: bounded residency, observed from the pool.
        # The factory-reported capacity is cache_pages per open store
        # (LAESA holds two: the core and the pivot table).  Linear and
        # LAESA scan in runs of cache_pages pages, every page read a
        # counted miss; the trees read the memmap view directly (OS
        # page cache, still reclaimable), so only the scan families
        # count pool traffic.
        pool = mmap_factory.pool_stats()
        assert pool["capacity"] <= 2 * _CACHE_PAGES
        assert pool["resident"] <= pool["capacity"], f"{name}: pool overflow"
        if name in ("linear", "laesa"):
            assert pool["misses"] > 0, f"{name}: scan never touched the pool"

        ratio = (
            mmap_result.mean_latency_seconds / mem_result.mean_latency_seconds
            if mem_result.mean_latency_seconds
            else float("inf")
        )
        rows_out.append(
            [
                name,
                f"{mem_build * 1e3:.0f} / {mmap_build * 1e3:.0f}",
                mem_result.mean_distance_computations,
                f"{mem_result.mean_latency_seconds * 1e3:.2f}",
                f"{mmap_result.mean_latency_seconds * 1e3:.2f}",
                f"x{ratio:.2f}",
                f"{pool['resident']}/{pool['capacity']}",
                pool["hits"],
                pool["misses"],
            ]
        )
        report[name] = {
            "build_s_memory": mem_build,
            "build_s_mmap": mmap_build,
            "dists_per_query": mem_result.mean_distance_computations,
            "latency_ms_memory": mem_result.mean_latency_seconds * 1e3,
            "latency_ms_mmap": mmap_result.mean_latency_seconds * 1e3,
            "latency_ratio": ratio,
            "pool": pool,
            "bit_identical": True,
        }
        mmap_index.close()

    print_experiment(
        ascii_table(
            [
                "index",
                "build ms (mem/mmap)",
                "dists/query",
                "mem ms",
                "mmap ms",
                "ratio",
                "resident/cap",
                "pool hits",
                "pool misses",
            ],
            rows_out,
            title=(
                f"F18: mmap backend - N={_N}, d={_DIM}, k={_K}, "
                f"cache_pages={_CACHE_PAGES} x {_PAGE_RECORDS} records "
                "(results bit-identical to the memory backend)"
            ),
        )
    )

    if _FULL_SIZE:
        _JSON_PATH.write_text(
            json.dumps(
                {
                    "experiment": "f18_mmap_backend",
                    "n": _N,
                    "dim": _DIM,
                    "k": _K,
                    "n_queries": _N_QUERIES,
                    "cache_pages": _CACHE_PAGES,
                    "page_records": _PAGE_RECORDS,
                    "families": report,
                },
                indent=1,
            )
            + "\n"
        )

    # Representative op for pytest-benchmark: one k-NN query against the
    # pool-bounded linear scan (the core read in runs of _CACHE_PAGES pages).
    factory = MmapBackendFactory(
        tmp_path / "bench-op", cache_pages=_CACHE_PAGES, page_records=_PAGE_RECORDS
    )
    index = LinearScanIndex(EuclideanDistance())
    index.backend_factory = factory
    index.build(list(range(_N)), vectors)
    state = {"i": 0}

    def run_one():
        state["i"] = (state["i"] + 1) % len(queries)
        return index.knn_search(queries[state["i"]], _K)

    benchmark(run_one)
    index.close()
