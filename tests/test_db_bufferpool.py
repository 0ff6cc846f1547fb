"""Tests for the LRU buffer pool."""

import pytest

from repro.db.bufferpool import BufferPool
from repro.errors import StoreError


class _FetchRecorder:
    """Fetch callback that records which pages were loaded."""

    def __init__(self):
        self.fetched = []

    def __call__(self, page_id):
        self.fetched.append(page_id)
        return f"page-{page_id}"


class TestBasics:
    def test_miss_then_hit(self):
        fetch = _FetchRecorder()
        pool = BufferPool(4, fetch)
        assert pool.get(1) == "page-1"
        assert pool.get(1) == "page-1"
        assert pool.hits == 1
        assert pool.misses == 1
        assert fetch.fetched == [1]

    def test_capacity_validated(self):
        with pytest.raises(StoreError):
            BufferPool(0, lambda p: p)

    def test_hit_ratio(self):
        pool = BufferPool(4, _FetchRecorder())
        assert pool.hit_ratio() == 0.0
        pool.get(1)
        pool.get(1)
        pool.get(1)
        assert pool.hit_ratio() == pytest.approx(2 / 3)

    def test_reset_counters_keeps_contents(self):
        fetch = _FetchRecorder()
        pool = BufferPool(4, fetch)
        pool.get(1)
        pool.reset_counters()
        assert pool.misses == 0
        pool.get(1)  # still resident
        assert pool.hits == 1
        assert fetch.fetched == [1]


class TestLRUEviction:
    def test_lru_victim_is_least_recent(self):
        fetch = _FetchRecorder()
        pool = BufferPool(2, fetch)
        pool.get(1)
        pool.get(2)
        pool.get(1)       # 1 is now most recent
        pool.get(3)       # evicts 2
        assert pool.evictions == 1
        pool.get(1)       # still resident
        pool.get(3)       # still resident
        assert fetch.fetched == [1, 2, 3]
        pool.get(2)       # gone: fetched again
        assert fetch.fetched == [1, 2, 3, 2]

    def test_eviction_count_under_thrash(self):
        pool = BufferPool(2, _FetchRecorder())
        for page in range(10):
            pool.get(page)
        assert pool.evictions == 8
        assert pool.resident == 2

    def test_sequential_scan_larger_than_pool_never_hits(self):
        pool = BufferPool(3, _FetchRecorder())
        for _ in range(3):
            for page in range(5):
                pool.get(page)
        assert pool.hits == 0  # classic LRU sequential-flooding behaviour

    def test_working_set_within_capacity_all_hits(self):
        pool = BufferPool(5, _FetchRecorder())
        for _ in range(4):
            for page in range(5):
                pool.get(page)
        assert pool.misses == 5
        assert pool.hits == 15
