"""The one block sweep behind every linear scan.

``LinearScanIndex`` (and LAESA's bound pass) walk their core with
``repro.db.backend.sweep`` on every backend — run-aligned parts of
``core.iter_blocks(start, stop)`` on every usable core at once — and
the k-NN selects its k rows without sorting all n.  Pinned here:

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
  (and therefore a later gather's hits) alone;
* **part-count parity** — 1, 2, 3 or 7 parts give the same ids, floats,
  ``SearchStats`` and page counts; an error in one part reaches the
  caller only after every part stopped; the pool behind the parts is
  started by a scan, never by an import;
* **exact counters under contention** — more scanning threads than
  cores, sharing one counting metric and one mmap factory, lose no
  distance and no page read.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import backend
from repro.db.backend import MemoryBackend, MemoryBackendFactory, MmapBackendFactory
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
    out.append((index.knn_search_batch(queries, k), index.last_stats))
    out.append((index.range_search_batch(queries, radius), index.last_stats))
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
    """Also counts kernel *calls* — one per block of a scan, from
    whichever thread scores the block."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0
        self._calls_lock = threading.Lock()

    def _kernel(self, query, vectors):
        with self._calls_lock:
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


# ---------------------------------------------------------------------------
# Part count
# ---------------------------------------------------------------------------
@pytest.fixture
def force_parts(monkeypatch):
    """Pin the sweep's part count through its core-count helper.  The
    pool is started first, at its real size, so forcing more parts than
    there are cores queues them instead of adding threads."""
    backend._sweep_pool()

    def force(count):
        monkeypatch.setattr(backend, "_usable_cores", lambda: count)

    return force


def _scan_index(kind):
    if kind == "linear":
        return LinearScanIndex(EuclideanDistance())
    return LAESAIndex(EuclideanDistance(), n_pivots=5)


@pytest.mark.parametrize("backend_name", ["memory", "mmap"])
@pytest.mark.parametrize("kind", ["linear", "laesa"])
def test_part_count_changes_no_answer_and_no_page_read(
    tmp_path, monkeypatch, force_parts, kind, backend_name
):
    # Runs of 16 rows on both backends at d=8 (LAESA's 5-column table:
    # 25 rows in memory), so n=203 is 12.7 runs of the core.
    monkeypatch.setattr(backend, "_BLOCK_BYTES", 16 * 8 * 8)
    rng = np.random.default_rng(17)
    vectors = rng.integers(0, 3, (203, 8)).astype(np.float64)  # ties everywhere
    extra = rng.integers(0, 3, (37, 8)).astype(np.float64)
    queries = rng.integers(0, 3, (3, 8)).astype(np.float64)
    k, radius = 9, 2.0

    def stages(count):
        force_parts(count)
        if backend_name == "memory":
            factory = MemoryBackendFactory()
        else:
            factory = MmapBackendFactory(
                tmp_path / f"parts-{count}", cache_pages=2, page_records=_PAGE_RECORDS
            )
        small, index = _scan_index(kind), _scan_index(kind)
        small.backend_factory = index.backend_factory = factory
        small.build(range(10), vectors[:10])  # less than one run
        index.build(range(len(vectors)), vectors)  # not a multiple of the run
        seen = [_answers(small, queries, k, radius), _answers(index, queries, k, radius)]
        index.insert_batch(range(203, 240), extra)
        index.delete([0, 5, 16, 17, 31, 202, 210])
        seen.append(_answers(index, queries, k, radius))
        index.delete(index.live_ids())
        seen.append(_answers(index, queries, k, radius))
        seen.append(factory.pool_stats())
        small.close()
        index.close()
        return seen

    one_part = stages(1)
    for count in (2, 3, 7):
        assert stages(count) == one_part


def test_an_error_in_one_part_reaches_the_caller_after_every_part_stopped(
    monkeypatch, force_parts
):
    monkeypatch.setattr(backend, "_BLOCK_BYTES", 16 * 8 * 8)  # runs of 16 rows
    force_parts(3)
    n = 96  # six runs: parts [0, 32), [32, 64), [64, 96)
    core = MemoryBackend(np.repeat(np.arange(n, dtype=np.float64)[:, None], 8, axis=1))
    lock = threading.Lock()
    running = [0]

    def score(block):
        with lock:
            running[0] += 1
        try:
            time.sleep(0.02)  # the other parts are mid-run when part 2 fails
            if block[0, 0] >= 64:
                raise RuntimeError("part 2 failed")
            return block[:, 0] * 2.0
        finally:
            with lock:
                running[0] -= 1

    out = np.full(n, -1.0)
    with pytest.raises(RuntimeError, match="part 2 failed"):
        backend.sweep(core, score, out)
    assert running[0] == 0
    assert np.array_equal(out[:64], np.arange(64) * 2.0)  # parts 0 and 1 ran out
    assert np.array_equal(out[64:], np.full(32, -1.0))


def test_scans_start_the_pool_and_imports_start_no_thread(tmp_path):
    script = textwrap.dedent(
        f"""
        import threading

        import numpy as np

        import repro, repro.serve.http
        from repro.db.backend import MmapBackendFactory, _usable_cores
        from repro.index.laesa import LAESAIndex
        from repro.index.linear import LinearScanIndex
        from repro.metrics.minkowski import EuclideanDistance

        assert threading.active_count() == 1, threading.enumerate()
        rows = np.random.default_rng(0).random((5000, 8))  # two 256 KiB runs
        mmap = MmapBackendFactory({str(tmp_path)!r}, cache_pages=2, page_records=8)
        scans = 0
        for factory in (None, mmap):
            for index in (LinearScanIndex(EuclideanDistance()), LAESAIndex(EuclideanDistance())):
                if factory is not None:
                    index.backend_factory = factory
                index.build(range(len(rows)), rows)
                for query in rows[:25]:
                    index.knn_search(query, 3)
                    scans += 1
        assert scans == 100
        cores = _usable_cores()
        assert threading.active_count() <= 1 + cores, threading.enumerate()
        assert threading.active_count() > 1 or cores == 1, "no part ran off the caller"
        """
    )
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# Counters under contention
# ---------------------------------------------------------------------------
def test_concurrent_scans_lose_no_distance_and_no_page_read(tmp_path, force_parts):
    """Eight scanning threads — more than the cores — share one counting
    metric and one mmap factory while the interpreter switches threads
    every microsecond; a lost update in either counter breaks an
    equality below."""
    force_parts(3)
    n, n_threads, rounds = 201, 8, 3
    pages = -(-n // _PAGE_RECORDS)
    metric = CountingMetric(EuclideanDistance())
    factory = MmapBackendFactory(tmp_path, cache_pages=2, page_records=_PAGE_RECORDS)
    rng = np.random.default_rng(23)
    vectors, queries = rng.random((n, 4)), rng.random((rounds, 4))
    pairs = []
    for _ in range(n_threads):
        pair = (LinearScanIndex(metric), LAESAIndex(metric, n_pivots=3))
        for index in pair:
            index.backend_factory = factory
            index.build(range(n), vectors)
        pairs.append(pair)

    def gathered():
        """LAESA's k-NN refinement reads core rows through the pool of
        its own core, which only its own thread touches."""
        return sum(laesa._core.pool_stats()["misses"] for _, laesa in pairs)

    metric.reset()
    misses, gathers = factory.pool_stats()["misses"], gathered()
    counted, errors = [], []

    def run(pair):
        try:
            for query in queries:
                for index in pair:
                    index.knn_search(query, n)  # k = n: LAESA refines every row
                    counted.append(index.last_stats.distance_computations)
        except Exception as error:  # re-raised on the test's thread below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(pair,)) for pair in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for thread in threads:
        assert not thread.is_alive()
    if errors:
        raise errors[0]
    scans = n_threads * rounds * 2
    assert counted == [n] * scans
    assert metric.count == scans * n
    # Every k-NN scans ⌈n/page_records⌉ pages (the linear core, LAESA's
    # table); LAESA's row gathers add their own pool misses.
    read = factory.pool_stats()["misses"] - misses
    assert read == scans * pages + gathered() - gathers
    for pair in pairs:
        for index in pair:
            index.close()
