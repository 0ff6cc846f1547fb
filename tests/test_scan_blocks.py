"""The one block loop behind every linear scan.

``LinearScanIndex`` (and LAESA's bound pass) walk their core with
``for start, block in core.iter_blocks()`` on every backend, and the
k-NN selects its k rows without sorting all n.  Pinned here:

* **selection == stable argsort** — ``_k_smallest`` returns exactly
  ``np.argsort(d, kind="stable")[:k]`` over duplicate-heavy values,
  ``inf``/``nan``, ``k >= n`` and the empty array;
* **backend parity** — ids, floats and full ``SearchStats`` of every
  query entry point agree between ``memory`` and ``mmap`` at several
  run sizes, with n a multiple of neither the page nor the run, before
  and after mutations (a VP-tree and an M-tree ride along: they read
  the core's view rather than the block loop, with the same contract);
* **page-touch accounting** — a scan costs exactly ⌈n / page_records⌉
  physical page reads, evicts nothing and leaves the LRU's residents
  (and therefore a later gather's hits) alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.backend import MemoryBackendFactory, MmapBackendFactory
from repro.index.laesa import LAESAIndex
from repro.index.linear import LinearScanIndex, _k_smallest
from repro.index.mtree import MTree
from repro.index.vptree import VPTree
from repro.metrics.base import CountingMetric, Metric
from repro.metrics.minkowski import EuclideanDistance

_PAGE_RECORDS = 8


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------
_VALUES = st.one_of(
    st.integers(0, 4).map(float),  # a small grid: ties everywhere
    st.sampled_from([np.inf, np.nan]),
)


class TestKSmallest:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_VALUES, max_size=40), k=st.integers(1, 45))
    def test_equals_stable_argsort_prefix(self, values, k):
        distances = np.array(values, dtype=np.float64)
        expected = np.argsort(distances, kind="stable")[:k]
        assert np.array_equal(_k_smallest(distances, k), expected)

    def test_ties_straddling_the_kth_place_keep_insertion_order(self):
        distances = np.array([2.0, 1.0, 2.0, 2.0, 0.0, 2.0])
        assert _k_smallest(distances, 3).tolist() == [4, 1, 0]
        assert _k_smallest(distances, 4).tolist() == [4, 1, 0, 2]


class _FirstCoordinate(Metric):
    """A non-metric 'distance': the stored row's first coordinate, with
    two sentinel values standing for ``inf`` and ``nan``."""

    is_metric = False

    def distance(self, a, b):
        return float(self._kernel(a, np.asarray(b)[None, :])[0])

    def _kernel(self, query, vectors):
        distances = np.array(vectors[:, 0], dtype=np.float64)
        distances[vectors[:, 0] == 7.0] = np.inf
        distances[vectors[:, 0] == 8.0] = np.nan
        return distances


def test_knn_with_inf_and_nan_distances_matches_full_sort():
    firsts = np.array([3.0, 8.0, 7.0, 0.0, 3.0, 7.0, 8.0, 0.0, 3.0])
    vectors = np.column_stack([firsts, np.zeros(len(firsts))])
    metric = _FirstCoordinate()
    index = LinearScanIndex(metric).build(list(range(len(firsts))), vectors)
    distances = metric.distance_batch(np.zeros(2), vectors)
    for k in range(1, len(firsts) + 2):
        # What the full stable argsort selected; the final ordering is
        # the base class's, identical for both.
        rows = np.argsort(distances, kind="stable")[:k]
        got = index.knn_search(np.zeros(2), k)
        assert sorted(nb.id for nb in got) == sorted(rows.tolist())
        assert np.array_equal(
            np.sort([nb.distance for nb in got]),
            np.sort(distances[rows]),
            equal_nan=True,
        )


# ---------------------------------------------------------------------------
# Backend parity
# ---------------------------------------------------------------------------
_N, _DIM = 1501, 48  # three 682-row memory blocks; 187.6 pages of 8 rows


def _answers(index, queries, k, radius):
    """Everything a query returns: results and full stats, per entry point."""
    out = []
    for query in queries:
        out.append((index.knn_search(query, k), index.last_stats))
        out.append((index.range_search(query, radius), index.last_stats))
    out.append((index.knn_search_batch(queries, k), index.last_batch_stats))
    out.append((index.range_search_batch(queries, radius), index.last_batch_stats))
    return out


@pytest.mark.parametrize("cache_pages", [1, 4, 64])
@pytest.mark.parametrize(
    "make_index",
    [
        lambda: LinearScanIndex(EuclideanDistance()),
        lambda: LAESAIndex(EuclideanDistance(), n_pivots=5),
        # The trees read the core's view, not the block loop: the same
        # answers and the same counted cost on either backend.
        lambda: VPTree(EuclideanDistance()),
        lambda: MTree(EuclideanDistance(), capacity=8),
    ],
    ids=["linear", "laesa", "vptree", "mtree"],
)
def test_memory_and_mmap_agree_bit_for_bit(tmp_path, cache_pages, make_index):
    rng = np.random.default_rng(99)
    vectors = rng.integers(0, 3, (_N, _DIM)).astype(np.float64)  # duplicates
    queries = rng.integers(0, 3, (4, _DIM)).astype(np.float64)
    extra = rng.integers(0, 3, (37, _DIM)).astype(np.float64)
    k = 25
    radius = float(np.sort(EuclideanDistance().distance_batch(queries[0], vectors))[60])

    indexes = []
    for factory in (
        MemoryBackendFactory(),
        MmapBackendFactory(
            tmp_path, cache_pages=cache_pages, page_records=_PAGE_RECORDS
        ),
    ):
        index = make_index()
        index.backend_factory = factory
        indexes.append(index.build(list(range(_N)), vectors))
    memory, mmap = indexes

    # Against the definition, not just against each other.
    distances = EuclideanDistance().distance_batch(queries[0], vectors)
    order = np.argsort(distances, kind="stable")[:k]
    expected = sorted(zip(distances[order].tolist(), order.tolist()))
    got = [(nb.distance, nb.id) for nb in mmap.knn_search(queries[0], k)]
    assert got == expected

    assert _answers(mmap, queries, k, radius) == _answers(memory, queries, k, radius)
    for index in indexes:
        index.insert_batch(list(range(_N, _N + len(extra))), extra)
        index.delete([0, 5, 681, 682, _N - 1, _N + 3])
    assert _answers(mmap, queries, k, radius) == _answers(memory, queries, k, radius)
    for index in indexes:
        index.close()


# ---------------------------------------------------------------------------
# Page-touch accounting
# ---------------------------------------------------------------------------
class _CallCounting(CountingMetric):
    """Also counts kernel *calls* — one per block of a scan."""

    calls = 0

    def _kernel(self, query, vectors):
        self.calls += 1
        return super()._kernel(query, vectors)


def test_scan_counts_every_page_once_and_leaves_the_pool_alone(tmp_path):
    n, cache_pages = 203, 4  # 25.4 pages, 6.3 runs
    pages = -(-n // _PAGE_RECORDS)
    runs = -(-n // (cache_pages * _PAGE_RECORDS))
    rng = np.random.default_rng(5)
    factory = MmapBackendFactory(
        tmp_path, cache_pages=cache_pages, page_records=_PAGE_RECORDS
    )
    metric = _CallCounting(EuclideanDistance())
    index = LinearScanIndex(metric)
    index.backend_factory = factory
    index.build(list(range(n)), rng.random((n, 3)))

    index.vectors_of([0, 100])  # two pages into the LRU
    before = factory.pool_stats()
    assert before["resident"] == 2

    metric.reset()
    index.knn_search(rng.random(3), 5)
    after = factory.pool_stats()
    assert after["misses"] - before["misses"] == pages
    assert after["evictions"] == before["evictions"] == 0
    assert after["resident"] == before["resident"]
    assert after["hits"] == before["hits"]
    assert metric.calls == runs
    assert metric.count == index.last_stats.distance_computations == n

    index.vectors_of([0, 100])  # the scan did not flush them
    again = factory.pool_stats()
    assert again["hits"] - after["hits"] == 2
    assert again["misses"] == after["misses"]

    index.close()  # counters survive the close, counted once
    assert factory.pool_stats()["misses"] == again["misses"]
