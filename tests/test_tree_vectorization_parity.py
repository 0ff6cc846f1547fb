"""Build/search parity suite for the vectorized tree indexes.

The tree vectorization PR rewired every tree's hot loops from scalar
``Metric.distance`` calls onto ``Metric.distance_batch`` kernels.  The
contract is strict: batching saves interpreter overhead, never metric
evaluations, and changes nothing observable —

* **golden parity** — tree structure (pivots, split radii, page
  contents), build stats, neighbor sets, distance floats, and every
  per-query cost counter are bit-identical to the scalar-era
  implementation.  The goldens in ``tests/data/golden_tree_parity.json``
  were captured by running this module's profiler against the pre-change
  code (``python tests/test_tree_vectorization_parity.py --write``);
  the current code must reproduce them exactly.  The VP-tree sections
  were re-recorded once, when its traversals became frontier rounds:
  structure, build stats, every exact answer and every range counter
  stayed bit for bit; its k-NN counters and approximate answers moved
  (k-NN distances did not rise on any query).  The GNAT and kd-tree
  ``knn_stats`` were re-recorded once, when their traversals moved onto
  the base class's round engine: every answer, every other section and
  every range counter stayed bit for bit.
* **kernel/fallback parity** — hiding a metric's vectorized kernel (so
  ``distance_batch`` degrades to the per-row loop) must not change one
  bit of any build or query, including the approximate modes.
* **batch entry-point parity** — ``knn_search_batch`` /
  ``range_search_batch`` equal the scalar entry points
  result-for-result, and a batch's ``last_stats`` is the sum of the
  scalar counters.  The goldens also pin the batched entry points'
  answers whole, including over the formerly loop-fallback
  metrics (EMD, circular EMD, Hausdorff); they were captured when the
  VP-tree, the GNAT and the kd-tree walked a batch with separate shared
  traversals, so the one loop per tree that replaced those can never
  drift from them.
* **kernel-only queries** — batched queries must reach the metric
  exclusively through ``distance_batch``: with the scalar ``distance``
  rigged to raise, every batch entry point still answers.
* **operand symmetry** — sharing pivot distances across a query batch
  evaluates ``d(pivot, q)`` where the scalar path evaluated
  ``d(q, pivot)``; every shipped metric must be bitwise symmetric.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.index.antipole import AntipoleTree
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.mtree import MTree
from repro.index.pivot import MaxVariancePivot, RandomPivot
from repro.index.stats import SearchStats
from repro.index.vptree import VPTree
from repro.metrics.base import CountingMetric, Metric, hide_batch_kernel
from repro.metrics.quadratic import QuadraticFormDistance
from repro.metrics.divergence import CanberraDistance, CosineDistance, JensenShannonDistance
from repro.metrics.emd import MatchDistance
from repro.metrics.hausdorff import HausdorffDistance
from repro.metrics.histogram import (
    BhattacharyyaDistance,
    ChiSquareDistance,
    HistogramIntersection,
)
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_tree_parity.json"

_N = 160
_DIM = 12
_N_QUERIES = 6
_K = 5
_RADIUS = {"L2": 1.2, "L1": 3.5, "EMD": 0.45, "CEMD": 0.40, "HAUS": 0.32}

#: The kd-tree only accepts Minkowski metrics; the loop-fallback-era
#: metrics (EMD, circular EMD, Hausdorff) are pinned on the two trees
#: whose batch entry points were captured over them.
_METRIC_COMPAT = {
    "EMD": {"vptree", "gnat"},
    "CEMD": {"vptree", "gnat"},
    "HAUS": {"vptree", "gnat"},
}


def _dataset():
    rng = np.random.default_rng(97)
    vectors = rng.random((_N, _DIM))
    queries = rng.random((_N_QUERIES, _DIM))
    return list(range(_N)), vectors, queries


def _metrics():
    # The random vectors are non-negative, so they are valid (unequal-mass)
    # histograms for the normalizing match distance, and valid 6-point 2-D
    # buffers for the Hausdorff adapter.
    return {
        "L2": EuclideanDistance(),
        "L1": ManhattanDistance(),
        "EMD": MatchDistance(),
        "CEMD": MatchDistance(circular=True),
        "HAUS": HausdorffDistance(point_dim=2),
    }


def _factories():
    return {
        "vptree": lambda m: VPTree(m, leaf_size=4, seed=3),
        "vptree-variance": lambda m: VPTree(
            m, leaf_size=4, seed=3, pivot_strategy=MaxVariancePivot()
        ),
        "vptree-random": lambda m: VPTree(
            m, leaf_size=4, seed=3, pivot_strategy=RandomPivot()
        ),
        "mtree-mmrad": lambda m: MTree(m, capacity=4, promotion="mmrad", seed=5),
        "mtree-maxdist": lambda m: MTree(m, capacity=4, promotion="maxdist", seed=5),
        "mtree-random": lambda m: MTree(m, capacity=4, promotion="random", seed=5),
        "gnat": lambda m: GNAT(m, degree=4, seed=2),
        "antipole": lambda m: AntipoleTree(m, seed=1),
        "kdtree": lambda m: KDTree(m, leaf_size=4),
    }


def _profile_keys():
    for index_name in _factories():
        for metric_name in _metrics():
            compat = _METRIC_COMPAT.get(metric_name)
            if compat is not None and index_name not in compat:
                continue
            yield f"{index_name}/{metric_name}"


# ----------------------------------------------------------------------
# Structure serializers (shape, split values, page contents — exact)
# ----------------------------------------------------------------------
def _structure(index) -> object:
    if isinstance(index, VPTree):
        return _vp_structure(index)
    if isinstance(index, GNAT):
        return _gnat_structure(index)
    if isinstance(index, MTree):
        return {
            "height": index.height,
            "n_pages": index.n_pages,
            "n_splits": index.n_splits,
            "root": _mtree_structure(index, index._root),
        }
    if isinstance(index, AntipoleTree):
        return {
            "threshold": index.effective_diameter_threshold,
            "root": _antipole_structure(index),
        }
    if isinstance(index, KDTree):
        return _kd_structure(index)
    raise AssertionError(f"no serializer for {type(index).__name__}")


def _vp_structure(tree, node=0):
    # The four static trees are structs of arrays (node -> row range,
    # children, payload); each is serialized into the shape the goldens
    # were captured in, when the trees were object graphs.
    if node < 0:
        return None
    start, stop = tree._start[node], tree._stop[node]
    inside, outside = tree._child[node].tolist()
    if inside < 0 and outside < 0:
        return {"leaf": tree._ids[start:stop].tolist()}
    return {
        "pivot": int(tree._ids[start]),
        "bounds": [
            tree._low[node, 0], tree._high[node, 0],
            tree._low[node, 1], tree._high[node, 1],
        ],
        "inside": _vp_structure(tree, inside),
        "outside": _vp_structure(tree, outside),
    }


def _gnat_structure(tree, node=0):
    if node < 0:
        return None
    start, stop = tree._start[node], tree._stop[node]
    table = tree._inner_of[node]
    if table < 0:
        return {"leaf": tree._ids[start:stop].tolist()}
    children = tree._children[table].tolist()
    return {
        "splits": tree._ids[start : start + len(children)].tolist(),
        "low": tree._low[table].tolist(),
        "high": tree._high[table].tolist(),
        "children": [_gnat_structure(tree, child) for child in children],
    }


def _mtree_structure(tree, page):
    # The M-tree's pages are parallel entry lists over core rows.
    if page < 0:
        return None
    return {
        "leaf": tree._leaf[page],
        "entries": [
            {
                "id": int(tree._ids[row]),
                "radius": radius,
                "d_parent": d_parent,
                "child": _mtree_structure(tree, child),
            }
            for row, radius, d_parent, child in zip(
                tree._entry_rows[page], tree._radius[page],
                tree._d_parent[page], tree._child[page],
            )
        ],
    }


def _antipole_structure(tree, node=0):
    if node < 0:
        return None
    start, stop = tree._start[node], tree._stop[node]
    if tree._is_cluster[node]:
        return {
            "centroid": int(tree._ids[start]),
            "members": tree._ids[start + 1 : stop].tolist(),
            "cached": tree._cached[start + 1 : stop].tolist(),
            "radius": tree._radius[node],
        }
    return {
        "a": int(tree._ids[start]),
        "b": int(tree._ids[start + 1]),
        "a_radius": tree._a_radius[node],
        "b_radius": tree._b_radius[node],
        "a_child": _antipole_structure(tree, tree._a_child[node]),
        "b_child": _antipole_structure(tree, tree._b_child[node]),
    }


def _kd_structure(tree, node=0):
    start, stop = tree._start[node], tree._stop[node]
    left = int(tree._child[node])
    if left < 0:
        return {"leaf": tree._ids[start:stop].tolist()}
    return {
        "dim": int(tree._split_dim[node]),
        "value": float(tree._split_value[node]),
        "left": _kd_structure(tree, left),
        "right": _kd_structure(tree, left + 1),
    }


# ----------------------------------------------------------------------
# Profiling: everything observable about builds and queries
# ----------------------------------------------------------------------
def _neighbors(result):
    return [[nb.id, nb.distance] for nb in result]


def _stats(stats):
    return dataclasses.asdict(stats)


def _capture(index_name: str, metric_name: str, metric: Metric | None = None) -> dict:
    ids, vectors, queries = _dataset()
    metric = metric if metric is not None else _metrics()[metric_name]
    index = _factories()[index_name](metric).build(ids, vectors)
    build = _stats(index.build_stats)
    build["extra"] = dict(index.build_stats.extra)
    profile = {
        "build": build,
        "structure": _structure(index),
        "queries": [],
    }
    radius = _RADIUS[metric_name]
    knn_total, range_total = SearchStats(), SearchStats()
    for query in queries:
        record = {}
        record["knn"] = _neighbors(index.knn_search(query, _K))
        record["knn_stats"] = _stats(index.last_stats)
        knn_total.merge(index.last_stats)
        record["range"] = _neighbors(index.range_search(query, radius))
        record["range_stats"] = _stats(index.last_stats)
        range_total.merge(index.last_stats)
        if isinstance(index, VPTree):
            record["knn_eps"] = _neighbors(
                index.knn_search_approximate(query, _K, epsilon=0.5)
            )
            record["knn_eps_stats"] = _stats(index.last_stats)
            record["knn_budget"] = _neighbors(
                index.knn_search_approximate(query, _K, max_distance_computations=60)
            )
            record["knn_budget_stats"] = _stats(index.last_stats)
        if isinstance(index, AntipoleTree):
            record["range_ids"] = index.range_search_ids(query, radius)
            record["range_ids_stats"] = _stats(index.last_stats)
        profile["queries"].append(record)
    # The batched entry points, captured whole; a batch's counters are
    # the sum of the per-query ones recorded above.
    profile["knn_batch"] = [_neighbors(r) for r in index.knn_search_batch(queries, _K)]
    assert index.last_stats == knn_total
    profile["range_batch"] = [
        _neighbors(r) for r in index.range_search_batch(queries, radius)
    ]
    assert index.last_stats == range_total
    return profile


def _capture_all() -> dict:
    return {
        key: _capture(*key.split("/"))
        for key in _profile_keys()
    }


# ----------------------------------------------------------------------
# Golden parity: current code vs the recorded pre-change behavior
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; regenerate with "
        f"`python tests/test_tree_vectorization_parity.py --write` on a "
        f"known-good checkout"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", list(_profile_keys()))
def test_golden_parity(golden, key):
    index_name, metric_name = key.split("/")
    assert key in golden, f"golden profile for {key} missing; regenerate"
    assert _capture(index_name, metric_name) == golden[key]


# ----------------------------------------------------------------------
# Kernel vs loop-fallback parity through the batched call sites
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", list(_profile_keys()))
def test_scalar_kernel_parity(key):
    index_name, metric_name = key.split("/")
    kernel = _capture(index_name, metric_name)
    fallback = _capture(
        index_name, metric_name, hide_batch_kernel(_metrics()[metric_name])
    )
    assert fallback == kernel


# ----------------------------------------------------------------------
# No scalar calls leak through the batched entry points
# ----------------------------------------------------------------------
def _forbid_scalar_distance(metric: Metric) -> Metric:
    """A clone of ``metric`` whose scalar ``distance`` raises.

    Batched tree queries are required to reach the metric exclusively
    through ``distance_batch``; building an index with the real metric
    and then querying through this clone proves no per-row scalar call
    survives on the batched paths.
    """
    import copy

    cls = type(metric)

    def _refuse(self, a, b):
        raise AssertionError(
            f"scalar {cls.__name__}.distance() called on a batched query path"
        )

    hidden = type(f"KernelOnly{cls.__name__}", (cls,), {"distance": _refuse})
    clone = copy.copy(metric)
    clone.__class__ = hidden
    return clone


_KERNEL_ONLY_CASES = [
    ("vptree", "EMD"),
    ("vptree", "CEMD"),
    ("vptree", "HAUS"),
    ("gnat", "EMD"),
    ("gnat", "CEMD"),
    ("gnat", "HAUS"),
    ("kdtree", "L2"),
    ("kdtree", "L1"),
]


@pytest.mark.parametrize(
    "index_name,metric_name", _KERNEL_ONLY_CASES, ids=lambda v: str(v)
)
def test_batched_queries_never_call_scalar_distance(index_name, metric_name):
    ids, vectors, queries = _dataset()
    metric = _metrics()[metric_name]
    index = _factories()[index_name](metric).build(ids, vectors)
    # Build used the real metric; from here on every scalar call raises.
    index._metric = _forbid_scalar_distance(metric)
    knn = index.knn_search_batch(queries, _K)
    rng_results = index.range_search_batch(queries, _RADIUS[metric_name])
    assert len(knn) == len(rng_results) == _N_QUERIES
    assert all(len(result) == _K for result in knn)


# ----------------------------------------------------------------------
# Batched entry points vs scalar entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", list(_profile_keys()))
def test_batch_entry_points_match_scalar(key):
    index_name, metric_name = key.split("/")
    ids, vectors, queries = _dataset()
    index = _factories()[index_name](_metrics()[metric_name]).build(ids, vectors)

    scalar_knn, scalar_knn_stats = [], []
    for query in queries:
        scalar_knn.append(index.knn_search(query, _K))
        scalar_knn_stats.append(index.last_stats)
    batch_knn = index.knn_search_batch(queries, _K)
    assert batch_knn == scalar_knn
    assert index.last_stats == sum(scalar_knn_stats, SearchStats())

    radius = _RADIUS[metric_name]
    scalar_range, scalar_range_stats = [], []
    for query in queries:
        scalar_range.append(index.range_search(query, radius))
        scalar_range_stats.append(index.last_stats)
    batch_range = index.range_search_batch(queries, radius)
    assert batch_range == scalar_range
    assert index.last_stats == sum(scalar_range_stats, SearchStats())


# ----------------------------------------------------------------------
# Counting metric cross-check: batching is never a way around accounting
# ----------------------------------------------------------------------
# The kd-tree is excluded: it only accepts the concrete Minkowski metric
# classes, so a CountingMetric cannot wrap its way in (its accounting is
# still pinned by the golden stats and the batch entry-point test).
@pytest.mark.parametrize(
    "index_name", [name for name in _factories() if name != "kdtree"]
)
def test_counting_metric_agrees_with_stats(index_name):
    ids, vectors, queries = _dataset()
    counter = CountingMetric(EuclideanDistance())
    index = _factories()[index_name](counter).build(ids, vectors)
    assert counter.count == index.build_stats.distance_computations

    counter.reset()
    index.knn_search(queries[0], _K)
    assert counter.count == index.last_stats.distance_computations

    counter.reset()
    index.range_search(queries[1], _RADIUS["L2"])
    assert counter.count == index.last_stats.distance_computations

    counter.reset()
    index.knn_search_batch(queries, _K)
    assert counter.count == index.last_stats.distance_computations


def test_vptree_approximate_counting():
    ids, vectors, queries = _dataset()
    counter = CountingMetric(EuclideanDistance())
    tree = VPTree(counter, leaf_size=4, seed=3).build(ids, vectors)
    for kwargs in ({"epsilon": 0.5}, {"max_distance_computations": 60}):
        counter.reset()
        tree.knn_search_approximate(queries[0], _K, **kwargs)
        assert counter.count == tree.last_stats.distance_computations
    budget = 60
    tree.knn_search_approximate(queries[0], _K, max_distance_computations=budget)
    assert tree.last_stats.distance_computations <= budget


# ----------------------------------------------------------------------
# Operand symmetry: shared pivot distances flip the operand order
# ----------------------------------------------------------------------
_SYMMETRIC_METRICS = [
    EuclideanDistance(),
    ManhattanDistance(),
    ChebyshevDistance(),
    MinkowskiDistance(3.0),
    WeightedEuclideanDistance(np.linspace(0.5, 2.0, 16)),
    HistogramIntersection(),
    ChiSquareDistance(),
    BhattacharyyaDistance(),
    CosineDistance(),
    CanberraDistance(),
    JensenShannonDistance(),
    MatchDistance(),
    MatchDistance(circular=True),
    QuadraticFormDistance(np.exp(-0.3 * np.abs(np.subtract.outer(np.arange(16), np.arange(16))))),
]


@pytest.mark.parametrize("metric", _SYMMETRIC_METRICS, ids=lambda m: m.name)
def test_kernel_operand_symmetry(metric):
    rng = np.random.default_rng(11)
    matrix = rng.random((20, 16)) + 1e-3
    matrix /= matrix.sum(axis=1, keepdims=True)  # valid for histogram metrics
    anchor = matrix[0]
    transposed = metric.distance_batch(anchor, matrix)
    for row, got in zip(matrix, transposed):
        assert metric.distance(row, anchor) == got


def test_hausdorff_operand_symmetry():
    rng = np.random.default_rng(12)
    metric = HausdorffDistance(point_dim=2)
    sets = rng.random((10, 16))
    anchor = sets[0]
    transposed = metric.distance_batch(anchor, sets)
    for row, got in zip(sets, transposed):
        assert metric.distance(row, anchor) == got


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(_capture_all(), indent=1))
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("usage: python tests/test_tree_vectorization_parity.py --write")
