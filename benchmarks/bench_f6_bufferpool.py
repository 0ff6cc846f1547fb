"""F6 — Buffer-pool hit ratio vs. capacity under a query workload.

The feature store keeps vectors in 64-record pages behind an LRU pool.
Vectors are bulk-loaded in **cluster order** (the layout a clustering
index naturally produces), so a k-NN query's neighbour set lands on few
pages.  Two workloads read vectors through the store:

* **uniform** - queries spread over all clusters,
* **skewed**  - 90% of queries hit 10% of the clusters (hot photos).

Expected shape: hit ratio rises with capacity and saturates once the
working set is resident; the skewed workload saturates at a far smaller
pool (its working set is a few hot pages), which is the argument for a
buffer pool in the first place.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_experiment
from repro.db.store import FeatureStore
from repro.eval.datasets import gaussian_clusters
from repro.eval.harness import ascii_table
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_N = 2048
_DIM = 16
_N_CLUSTERS = 16
_PAGE_RECORDS = 64
_CAPACITIES = (1, 2, 4, 8, 16, 32)
_N_QUERIES = 60
_HOT_CLUSTERS = 2  # the "10%" the skewed workload hammers


@pytest.fixture(scope="module")
def cluster_ordered():
    """Vectors sorted by cluster (slot order == page locality)."""
    vectors, labels = gaussian_clusters(
        _N, _DIM, n_clusters=_N_CLUSTERS, cluster_std=0.04, seed=7
    )
    order = np.argsort(labels, kind="stable")
    return vectors[order], labels[order]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, cluster_ordered):
    vectors, _ = cluster_ordered
    path = tmp_path_factory.mktemp("f6") / "vectors.feat"
    with FeatureStore.create(path, dim=_DIM, page_records=_PAGE_RECORDS) as store:
        for vector in vectors:
            store.append(vector)
    return path


def _access_trace(cluster_ordered, skewed: bool, seed: int) -> list[int]:
    """Slot-access trace from a k-NN workload over the clustered data."""
    vectors, labels = cluster_ordered
    tree = VPTree(EuclideanDistance()).build(list(range(_N)), vectors)
    rng = np.random.default_rng(seed)
    hot = np.flatnonzero(labels < _HOT_CLUSTERS)
    trace: list[int] = []
    for _ in range(_N_QUERIES):
        if skewed and rng.random() < 0.9:
            anchor = vectors[int(rng.choice(hot))]
        else:
            anchor = vectors[int(rng.integers(_N))]
        query = anchor + rng.normal(0.0, 0.01, anchor.shape)
        for neighbor in tree.knn_search(query, 10):
            trace.append(neighbor.id)
    return trace


def test_f6_hit_ratio_table(store_path, cluster_ordered):
    rows = []
    ratios = {}
    for workload in ("uniform", "skewed"):
        trace = _access_trace(cluster_ordered, workload == "skewed", seed=12)
        for capacity in _CAPACITIES:
            with FeatureStore.open(store_path, buffer_pages=capacity) as store:
                store.pool.reset_counters()
                for slot in trace:
                    store.get(slot)
                ratios[(workload, capacity)] = store.pool.hit_ratio()
                rows.append(
                    [
                        workload,
                        capacity,
                        len(trace),
                        store.pool.hits,
                        store.pool.misses,
                        store.pool.hit_ratio(),
                    ]
                )
    print_experiment(
        ascii_table(
            ["workload", "pool pages", "accesses", "hits", "page reads", "hit ratio"],
            rows,
            title=f"F6: LRU buffer pool vs capacity "
            f"({_N} records, {_PAGE_RECORDS}/page = {_N // _PAGE_RECORDS} pages, "
            f"cluster-ordered layout)",
        )
    )

    # Shape checks: monotone in capacity; skew shrinks the working set;
    # full residency saturates.
    for workload in ("uniform", "skewed"):
        assert ratios[(workload, 32)] >= ratios[(workload, 1)]
    assert ratios[("skewed", 4)] > ratios[("uniform", 4)] + 0.1
    assert ratios[("uniform", 32)] > 0.9  # everything resident after warmup
    assert ratios[("skewed", 4)] > 0.5    # hot working set fits in 4 pages
