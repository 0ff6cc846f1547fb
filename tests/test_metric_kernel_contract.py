"""The kernel contract: one unchecked batch entry per metric.

``Metric.distance_batch`` is the checked public wrapper — validate the
operands once, then ``self._kernel(query, vectors)`` — and ``_kernel``
is the extension point the indexes call directly.  Pinned here:

* **bit-identity** — for every concrete metric the library ships (found
  by walking ``Metric.__subclasses__()``, so a new metric cannot dodge
  the suite), ``_kernel(q, V)`` equals ``distance_batch(q, V)`` equals
  ``[distance(q, v) for v in V]`` for 0, 1 and many rows and for
  non-contiguous row slices;
* **one template** — no library class overrides ``distance_batch``
  without supplying ``_kernel``, and only the three reference metrics
  (EMD, Hausdorff, circular shift) and the counting wrapper override
  ``distance``: every other metric is its kernel;
* **the checks stay on the checked path** — ``distance_batch`` raises
  :class:`MetricError` for a wrong dimension, a wrong rank and empty
  operands, the fixed-dimension metrics (weighted L2, quadratic form)
  included;
* **indexes validate before they call** — through every public index
  entry point ``_kernel`` only ever sees a float64 ``(d,)`` query and a
  float64 ``(n, d)`` block of the index's dimension, and a metric whose
  fixed dimension does not fit the data is refused at ``build``;
* **the accounting survives** — an index built on a counting wrapper
  reports ``counter.count == last_stats.distance_computations`` (and the
  build count likewise) for every index kind.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.metrics
from repro.errors import IndexingError, MetricError
from repro.index import (
    GNAT,
    AntipoleTree,
    FilterRefineIndex,
    KDTree,
    LAESAIndex,
    LinearScanIndex,
    MTree,
    VPTree,
)
from repro.metrics.base import CountingMetric, Metric
from repro.metrics.divergence import (
    CanberraDistance,
    CosineDistance,
    JensenShannonDistance,
)
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
from repro.metrics.quadratic import QuadraticFormDistance
from repro.metrics.shifted import CircularShiftDistance
from repro.reduce import KLTransform

_DIM = 6  # even: three 2-D points for the Hausdorff adapter


def _psd(dim: int) -> np.ndarray:
    root = np.random.default_rng(5).random((dim, dim))
    return root @ root.T


#: Every concrete library metric, in every configuration with its own
#: kernel branch.  ``test_every_library_metric_is_covered`` keeps the
#: table honest.
_INSTANCES: dict[type, list[Metric]] = {
    ManhattanDistance: [ManhattanDistance()],
    EuclideanDistance: [EuclideanDistance()],
    ChebyshevDistance: [ChebyshevDistance()],
    MinkowskiDistance: [MinkowskiDistance(3.0)],
    WeightedEuclideanDistance: [
        WeightedEuclideanDistance(np.arange(1.0, _DIM + 1.0))
    ],
    HistogramIntersection: [HistogramIntersection()],
    ChiSquareDistance: [ChiSquareDistance()],
    BhattacharyyaDistance: [BhattacharyyaDistance()],
    QuadraticFormDistance: [QuadraticFormDistance(_psd(_DIM))],
    MatchDistance: [
        MatchDistance(),
        MatchDistance(circular=True),
        MatchDistance(normalize=False),
    ],
    HausdorffDistance: [HausdorffDistance(point_dim=2)],
    CircularShiftDistance: [
        CircularShiftDistance(),
        CircularShiftDistance(ManhattanDistance(), max_shift=2),
        CircularShiftDistance(MatchDistance()),
    ],
    CosineDistance: [CosineDistance()],
    CanberraDistance: [CanberraDistance()],
    JensenShannonDistance: [JensenShannonDistance()],
    CountingMetric: [
        CountingMetric(EuclideanDistance()),
        CountingMetric(MatchDistance()),
    ],
}

_CASES = [
    pytest.param(metric, id=f"{type(metric).__name__}-{i}")
    for instances in _INSTANCES.values()
    for i, metric in enumerate(instances)
]


def _library_metric_classes() -> list[type]:
    for module in pkgutil.iter_modules(repro.metrics.__path__):
        importlib.import_module(f"repro.metrics.{module.name}")
    found, frontier = [], [Metric]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            frontier.append(cls)
            # The contract is about what the library ships: classes
            # importable by name from a repro module, not the spies of
            # test modules or ``hide_batch_kernel``'s dynamic clones.
            if cls.__module__.startswith("repro.") and (
                getattr(sys.modules[cls.__module__], cls.__name__, None) is cls
            ):
                found.append(cls)
    return found


def test_every_library_metric_is_covered():
    concrete = {c for c in _library_metric_classes() if not inspect.isabstract(c)}
    assert concrete == set(_INSTANCES)


#: Besides the counting wrapper, the library metrics with a scalar
#: ``distance`` of their own: independent references the bit-identity
#: suite checks the kernels against.  Every other metric is its kernel.
_OWN_DISTANCE = {MatchDistance, HausdorffDistance, CircularShiftDistance}


def test_a_metric_is_its_kernel():
    own = {c for c in _library_metric_classes() if "distance" in vars(c)}
    assert own == _OWN_DISTANCE | {CountingMetric}
    # ... and each reference still equals its kernel bit for bit.
    rng = np.random.default_rng(13)
    for cls in _OWN_DISTANCE:
        for metric in _INSTANCES[cls]:
            query, vectors = _operands(metric, rng.random((9, _DIM)) + 0.05)
            scalar = [metric.distance(query, row) for row in vectors]
            assert np.array_equal(metric._kernel(query, vectors), scalar)


def test_distance_batch_is_the_one_template():
    for cls in _library_metric_classes():
        if "distance_batch" in vars(cls):
            assert "_kernel" in vars(cls), cls
    # Today nothing overrides it at all.
    assert not [c for c in _library_metric_classes() if "distance_batch" in vars(c)]


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
def _operands(metric: Metric, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row 0 is the query, the rest the vectors; equal masses where the
    metric demands them."""
    if isinstance(metric, MatchDistance) and not metric._normalize:
        block = block / block.sum(axis=1, keepdims=True)
    return block[0], block[1:]


@pytest.mark.parametrize("metric", _CASES)
@settings(max_examples=25, deadline=None)
@given(
    block=hnp.arrays(
        np.float64,
        st.tuples(st.sampled_from([1, 2, 3, 12]), st.just(_DIM)),
        # Strictly positive so every row is a valid histogram and has a
        # mass to normalize by; the sampled values force duplicate rows,
        # zero distances and ties.
        elements=st.one_of(
            st.floats(0.01, 4.0), st.sampled_from([0.25, 0.5, 1.0])
        ),
    )
)
def test_kernel_equals_checked_batch_equals_scalar(metric, block):
    query, vectors = _operands(metric, block)
    for rows in (vectors, vectors[::2], vectors[::-1]):
        kernel = metric._kernel(query, rows)
        assert kernel.dtype == np.float64 and kernel.shape == (rows.shape[0],)
        assert np.array_equal(kernel, metric.distance_batch(query, rows))
        scalar = np.array([metric.distance(query, row) for row in rows])
        assert np.array_equal(kernel, scalar.astype(np.float64))


@pytest.mark.parametrize("metric", _CASES)
def test_checked_batch_coerces_what_the_kernel_is_spared(metric):
    rng = np.random.default_rng(8)
    query, vectors = _operands(metric, rng.random((9, _DIM)) + 0.05)
    expected = metric._kernel(query, vectors)
    assert np.array_equal(
        metric.distance_batch(query.tolist(), vectors.tolist()), expected
    )
    assert np.array_equal(
        metric.distance_batch(query[None, :], np.asfortranarray(vectors)), expected
    )


# ----------------------------------------------------------------------
# The checks stay on the checked path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric", _CASES)
def test_checked_batch_rejects_bad_operands(metric):
    query = np.full(_DIM, 0.5)
    with pytest.raises(MetricError):
        metric.distance_batch(query, np.full((3, _DIM + 2), 0.5))  # wrong dim
    with pytest.raises(MetricError):
        metric.distance_batch(query, np.full(_DIM, 0.5))  # wrong rank
    with pytest.raises(MetricError):
        metric.distance_batch(query, np.full((2, 3, _DIM), 0.5))
    with pytest.raises(MetricError):
        metric.distance_batch(np.empty(0), np.empty((3, 0)))  # empty


@pytest.mark.parametrize(
    "metric",
    [
        WeightedEuclideanDistance(np.ones(_DIM)),
        QuadraticFormDistance(_psd(_DIM)),
        CountingMetric(WeightedEuclideanDistance(np.ones(_DIM))),
        CircularShiftDistance(QuadraticFormDistance(_psd(_DIM))),
    ],
    ids=lambda m: m.name,
)
def test_fixed_dimension_metrics_check_their_own_dim(metric):
    # Operands that agree with each other but not with the metric.
    query, vectors = np.full(_DIM + 1, 0.5), np.full((4, _DIM + 1), 0.5)
    with pytest.raises(MetricError, match="dim"):
        metric.distance_batch(query, vectors)
    with pytest.raises(MetricError, match="dim"):
        metric._check_dim(_DIM + 1)
    metric._check_dim(_DIM)
    # ... and every index asks at build, before any unchecked call.
    with pytest.raises(MetricError, match="dim"):
        LinearScanIndex(metric).build([0, 1, 2, 3], vectors)


# ----------------------------------------------------------------------
# Indexes validate before they call
# ----------------------------------------------------------------------
class _StrictL2(EuclideanDistance):
    """Fails the test the moment ``_kernel`` sees an unvalidated operand,
    and counts the rows it is handed (the scalar path runs the kernel on
    a one-row block, so every evaluation is counted exactly once)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.calls = 0
        self.count = 0

    def reset(self) -> None:
        self.count = 0

    def _kernel(self, query, vectors):
        assert type(query) is np.ndarray and type(vectors) is np.ndarray
        assert query.dtype == np.float64 and vectors.dtype == np.float64
        assert query.shape == (self.dim,)
        assert vectors.ndim == 2 and vectors.shape[1] == self.dim
        self.calls += 1
        self.count += vectors.shape[0]
        return EuclideanDistance._kernel(query, vectors)


_INDEX_FACTORIES = {
    "linear": LinearScanIndex,
    "vptree": lambda m: VPTree(m, leaf_size=4),
    "antipole": AntipoleTree,
    "mtree": lambda m: MTree(m, capacity=4),
    "gnat": lambda m: GNAT(m, degree=4),
    "laesa": lambda m: LAESAIndex(m, n_pivots=4),
    "kdtree": lambda m: KDTree(m, leaf_size=4),
    "filter-refine": lambda m: FilterRefineIndex(m, KLTransform(2)),
}


@pytest.mark.parametrize("kind", list(_INDEX_FACTORIES))
def test_public_index_entry_points_never_pass_unvalidated_operands(kind):
    dim, n = 5, 120
    rng = np.random.default_rng(31)
    metric = _StrictL2(dim)
    index = _INDEX_FACTORIES[kind](metric)
    # Integer-valued float32 input: the index, not the kernel, coerces.
    index.build(range(n), (rng.random((n, dim)) * 8).astype(np.float32))

    good = [0, 1, 2, 3, 4]  # a list of ints is a valid query
    assert index.knn_search(good, 3) == index.knn_search(np.array(good, float), 3)
    index.range_search(np.float32(good), 2.0)
    index.knn_search_batch([good, good], 3)
    index.range_search_batch(np.array([good], dtype=np.int64), 2.0)
    index.insert_batch([n, n + 1], [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
    index.knn_search(good, 3)
    index.delete([3])
    index.knn_search(good, 3)

    calls = metric.calls
    bad_calls = [
        lambda: index.knn_search(np.ones(dim + 1), 3),
        lambda: index.knn_search(np.ones((2, dim)), 3),
        lambda: index.range_search([1.0, np.nan, 0, 0, 0], 1.0),
        lambda: index.knn_search_batch(np.ones(dim), 3),
        lambda: index.knn_search_batch(np.ones((2, dim - 1)), 3),
        lambda: index.range_search_batch(np.full((1, dim), np.inf), 1.0),
        lambda: index.insert_batch([900], np.ones((1, dim + 1))),
        lambda: index.insert_batch([901], np.ones(dim)),
        lambda: index.knn_search(good, 0),
        lambda: index.range_search(good, -1.0),
    ]
    if kind == "vptree":
        bad_calls.append(
            lambda: index.knn_search_approximate(np.ones(dim - 1), 3, epsilon=0.5)
        )
    for call in bad_calls:
        with pytest.raises(IndexingError):
            call()
    assert metric.calls == calls  # refused before the metric was reached


# ----------------------------------------------------------------------
# The accounting survives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(_INDEX_FACTORIES))
def test_counting_wrapper_agrees_with_index_stats(kind):
    dim, n = 5, 150
    rng = np.random.default_rng(77)
    # The kd-tree only takes the Minkowski classes themselves, so it
    # gets a counting subclass; everything else the real wrapper.
    counter = (
        _StrictL2(dim) if kind == "kdtree" else CountingMetric(EuclideanDistance())
    )

    def spent() -> int:
        count = counter.count
        counter.reset()
        return count

    index = _INDEX_FACTORIES[kind](counter).build(range(n), rng.random((n, dim)))
    assert spent() == index.build_stats.distance_computations
    queries = rng.random((4, dim))

    index.knn_search(queries[0], 7)
    assert spent() == index.last_stats.distance_computations > 0
    index.range_search(queries[1], 0.4)
    assert spent() == index.last_stats.distance_computations > 0
    index.knn_search_batch(queries, 7)
    assert spent() == index.last_stats.distance_computations
    index.range_search_batch(queries, 0.4)
    assert spent() == index.last_stats.distance_computations

    # With a mutation overlay in place the pending scan is counted too.
    index.insert_batch([n, n + 1, n + 2], rng.random((3, dim)))
    index.delete([0, 1])
    spent()
    index.knn_search(queries[2], 7)
    assert spent() == index.last_stats.distance_computations > 0
    if kind == "vptree":
        index.knn_search_approximate(
            queries[3], 7, epsilon=0.5, max_distance_computations=40
        )
        assert spent() == index.last_stats.distance_computations > 0
