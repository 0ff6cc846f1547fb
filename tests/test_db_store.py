"""Tests for the paged feature store."""

import numpy as np
import pytest

from repro.db.store import FeatureStore
from repro.errors import StoreError


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "test.feat"


class TestLifecycle:
    def test_create_and_reopen_empty(self, store_path):
        with FeatureStore.create(store_path, dim=4):
            pass
        with FeatureStore.open(store_path) as store:
            assert len(store) == 0
            assert store.dim == 4

    def test_create_refuses_existing(self, store_path):
        FeatureStore.create(store_path, dim=4).close()
        with pytest.raises(StoreError, match="exists"):
            FeatureStore.create(store_path, dim=4)
        FeatureStore.create(store_path, dim=4, overwrite=True).close()

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            FeatureStore.open(tmp_path / "nope.feat")

    def test_open_rejects_bad_magic(self, store_path):
        store_path.write_bytes(b"NOTASTORE" + b"\x00" * 32)
        with pytest.raises(StoreError, match="magic"):
            FeatureStore.open(store_path)

    def test_open_rejects_short_file(self, store_path):
        store_path.write_bytes(b"RF")
        with pytest.raises(StoreError, match="short"):
            FeatureStore.open(store_path)

    def test_operations_after_close_fail(self, store_path):
        store = FeatureStore.create(store_path, dim=2)
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.append([1.0, 2.0])
        store.close()  # idempotent

    def test_validates_create_parameters(self, store_path):
        with pytest.raises(StoreError):
            FeatureStore.create(store_path, dim=0)
        with pytest.raises(StoreError):
            FeatureStore.create(store_path, dim=4, page_records=0)


class TestAppendGet:
    def test_round_trip_within_session(self, store_path, rng):
        vectors = rng.random((10, 6))
        with FeatureStore.create(store_path, dim=6, page_records=4) as store:
            slots = [store.append(v) for v in vectors]
            assert slots == list(range(10))
            for slot, vector in zip(slots, vectors):
                assert np.allclose(store.get(slot), vector)

    def test_round_trip_across_sessions(self, store_path, rng):
        vectors = rng.random((10, 6))
        with FeatureStore.create(store_path, dim=6, page_records=4) as store:
            for v in vectors:
                store.append(v)
        with FeatureStore.open(store_path) as store:
            assert len(store) == 10
            for slot, vector in enumerate(vectors):
                assert np.allclose(store.get(slot), vector)

    def test_append_after_reopen(self, store_path, rng):
        first = rng.random((5, 3))
        second = rng.random((5, 3))
        with FeatureStore.create(store_path, dim=3, page_records=4) as store:
            for v in first:
                store.append(v)
        with FeatureStore.open(store_path) as store:
            for v in second:
                store.append(v)
        with FeatureStore.open(store_path) as store:
            assert len(store) == 10
            everything = np.vstack([first, second])
            for slot in range(10):
                assert np.allclose(store.get(slot), everything[slot])

    def test_get_out_of_range(self, store_path):
        with FeatureStore.create(store_path, dim=2) as store:
            store.append([1.0, 2.0])
            with pytest.raises(StoreError, match="range"):
                store.get(1)
            with pytest.raises(StoreError, match="range"):
                store.get(-1)

    def test_append_validates_vector(self, store_path):
        with FeatureStore.create(store_path, dim=3) as store:
            with pytest.raises(StoreError, match="dim"):
                store.append([1.0, 2.0])
            with pytest.raises(StoreError, match="non-finite"):
                store.append([1.0, np.nan, 2.0])

    def test_get_returns_copy(self, store_path):
        with FeatureStore.create(store_path, dim=2) as store:
            store.append([1.0, 2.0])
            vector = store.get(0)
            vector[0] = 99.0
            assert store.get(0)[0] == 1.0

    def test_get_many_order(self, store_path, rng):
        vectors = rng.random((8, 2))
        with FeatureStore.create(store_path, dim=2, page_records=2) as store:
            for v in vectors:
                store.append(v)
            out = store.get_many([5, 0, 3])
            assert np.allclose(out, vectors[[5, 0, 3]])

    def test_read_all(self, store_path, rng):
        vectors = rng.random((9, 4))
        with FeatureStore.create(store_path, dim=4, page_records=4) as store:
            for v in vectors:
                store.append(v)
            assert np.allclose(store.read_all(), vectors)

    def test_read_all_empty(self, store_path):
        with FeatureStore.create(store_path, dim=4) as store:
            assert store.read_all().shape == (0, 4)


class TestTruncatedFile:
    """A file shorter than its header's count fails every read path.

    A 128-row store whose file lost its last 32 rows: point reads used
    to zero-fill the missing bytes and serve ``[0, 0, 0, 0]`` for slot
    127 while ``scan`` and ``read_all`` raised.
    """

    @pytest.fixture
    def truncated(self, store_path, rng):
        with FeatureStore.create(store_path, dim=4, page_records=64) as store:
            store.extend(rng.random((128, 4)) + 1.0)
        with open(store_path, "r+b") as file:
            file.truncate(store_path.stat().st_size - 32 * 4 * 8)
        store = FeatureStore.open(store_path)
        yield store
        store._file.close()

    def test_point_reads_raise(self, truncated):
        assert truncated.get(0)[0] >= 1.0  # the intact first page serves
        with pytest.raises(StoreError, match="truncated"):
            truncated.get(127)
        with pytest.raises(StoreError, match="truncated"):
            truncated.get_many([3, 127])

    def test_bulk_reads_raise(self, truncated):
        with pytest.raises(StoreError, match="truncated"):
            truncated.read_all()
        with pytest.raises(StoreError, match="truncated"):
            list(truncated.scan(run_pages=1))

    def test_truncated_partial_tail_fails_open(self, store_path, rng):
        with FeatureStore.create(store_path, dim=4, page_records=64) as store:
            store.extend(rng.random((100, 4)))
        with open(store_path, "r+b") as file:
            file.truncate(store_path.stat().st_size - 8)
        with pytest.raises(StoreError, match="truncated"):
            FeatureStore.open(store_path)


class TestExtendAndScan:
    """Bulk append and the sequential read path."""

    @pytest.mark.parametrize("started", [0, 3])
    @pytest.mark.parametrize("m", [0, 1, 4, 5, 14, 16])
    def test_extend_writes_the_bytes_of_row_appends(self, tmp_path, rng, started, m):
        head, rows = rng.random((started, 3)), rng.random((m, 3))
        paths = tmp_path / "bulk.feat", tmp_path / "rows.feat"
        with FeatureStore.create(paths[0], dim=3, page_records=4) as store:
            store.extend(head)
            store.extend(rows)
            assert len(store) == started + m
            for slot, row in enumerate(np.vstack([head, rows])):
                assert np.array_equal(store.get(slot), row)  # before any flush
        with FeatureStore.create(paths[1], dim=3, page_records=4) as store:
            for row in np.vstack([head, rows]):
                store.append(row)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_extend_tops_up_then_writes_full_pages_once(self, store_path, rng):
        from tests.faults import CountingFS

        fs = CountingFS()
        store = FeatureStore.create(store_path, dim=2, page_records=4, fs=fs)
        store.extend(rng.random((2, 2)))
        start = fs.count
        store.extend(rng.random((2 + 12 + 1, 2)))  # top-up, 3 pages, 1 over
        assert fs.calls[start:] == ["write", "write"]
        start = fs.count
        store.flush()
        assert fs.calls[start:] == ["write", "fsync", "write", "fsync"]
        store.close()

    def test_extend_validates_before_writing(self, store_path):
        with FeatureStore.create(store_path, dim=3, page_records=2) as store:
            with pytest.raises(StoreError, match="dim"):
                store.extend(np.zeros((5, 2)))
            with pytest.raises(StoreError, match="non-finite"):
                store.extend(np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]))
            assert len(store) == 0

    @pytest.mark.parametrize("fail_at", [0, 1])  # the top-up, the full pages
    def test_failed_extend_changes_nothing(self, tmp_path, rng, fail_at):
        """An extend whose write raises leaves the count, the tail and
        the bytes as they were, and the next extend lands where the
        failed one would have."""
        from tests.faults import FaultFS

        head, rows = rng.random((3, 2)), rng.random((1 + 8 + 2, 2))
        paths = tmp_path / "failed.feat", tmp_path / "clean.feat"
        fs = FaultFS(10**9, mode="error")
        store = FeatureStore.create(paths[0], dim=2, page_records=4, fs=fs)
        store.extend(head)
        fs.crash_at = fs.count + fail_at
        with pytest.raises(OSError):
            store.extend(rows)
        assert len(store) == 3
        assert np.array_equal(store.read_all(), head)
        store.extend(rows)
        assert np.array_equal(store.read_all(), np.vstack([head, rows]))
        store.close()
        with FeatureStore.create(paths[1], dim=2, page_records=4) as clean:
            clean.extend(head)
            clean.flush()
            clean.extend(rows)
            clean.flush()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_scan_reads_runs_around_the_pool(self, store_path, rng):
        vectors = rng.random((23, 2))  # 5.75 pages
        with FeatureStore.create(
            store_path, dim=2, page_records=4, buffer_pages=2
        ) as store:
            store.extend(vectors)  # not flushed: the scan must still see it
            store.get(0)
            reads, resident = store.page_reads, store.pool.resident
            starts, blocks = [], []
            for start, block in store.scan(2):
                assert not block.flags.writeable
                assert len(block) <= 2 * 4
                starts.append(start)
                blocks.append(block.copy())  # valid only until the next block
            assert starts == [0, 8, 16]
            assert np.array_equal(np.concatenate(blocks), vectors)
            assert store.page_reads - reads == 6
            assert store.pool.resident == resident and store.pool.evictions == 0
            assert [start for start, _ in store.scan(1)] == [0, 4, 8, 12, 16, 20]

    def test_scan_of_empty_store(self, store_path):
        with FeatureStore.create(store_path, dim=2) as store:
            assert list(store.scan(4)) == []


class TestPagingAndCache:
    def test_page_reads_counted(self, store_path, rng):
        vectors = rng.random((16, 2))
        with FeatureStore.create(store_path, dim=2, page_records=4) as store:
            for v in vectors:
                store.append(v)
        with FeatureStore.open(store_path, buffer_pages=2) as store:
            store.get(0)   # page 0: miss
            store.get(1)   # page 0: hit
            store.get(4)   # page 1: miss
            store.get(8)   # page 2: miss, evicts page 0
            store.get(0)   # page 0: miss again
            assert store.page_reads == 4
            assert store.pool.hits == 1

    def test_sequential_locality(self, store_path, rng):
        vectors = rng.random((64, 2))
        with FeatureStore.create(store_path, dim=2, page_records=8) as store:
            for v in vectors:
                store.append(v)
        with FeatureStore.open(store_path, buffer_pages=2) as store:
            for slot in range(64):
                store.get(slot)
            assert store.page_reads == 8  # one miss per page

    def test_tail_reads_before_flush(self, store_path):
        with FeatureStore.create(store_path, dim=2, page_records=100) as store:
            store.append([1.0, 2.0])
            # Unflushed tail page must still be readable.
            assert np.allclose(store.get(0), [1.0, 2.0])

    def test_crash_before_flush_loses_tail_only(self, store_path):
        store = FeatureStore.create(store_path, dim=2, page_records=4)
        store.append([1.0, 1.0])
        store.flush()
        store.append([2.0, 2.0])
        # Simulate crash: drop the handle without close/flush.
        store._file.close()
        with FeatureStore.open(store_path) as reopened:
            assert len(reopened) == 1
            assert np.allclose(reopened.get(0), [1.0, 1.0])


class TestFlushOrdering:
    """The two-phase flush: data is fsynced *before* the header count.

    Regression for a write-ordering hole: flush used to write the tail
    page and the new header count, then fsync once — the kernel may
    persist the header before the data, and a crash in that window
    leaves a count that promises records whose bytes never hit the
    disk.  The fix fsyncs the data, then writes the header, then fsyncs
    again, so a persisted count always refers to persisted records.
    """

    def test_flush_fsyncs_data_before_header_write(self, store_path):
        from tests.faults import CountingFS

        fs = CountingFS()
        store = FeatureStore.create(store_path, dim=2, page_records=4, fs=fs)
        store.append([1.0, 1.0])
        start = fs.count
        store.flush()
        flush_calls = fs.calls[start:]
        # tail-page write, data fsync, header write, header fsync —
        # the data fsync strictly between the two writes is the fix.
        assert flush_calls == ["write", "fsync", "write", "fsync"]
        store.close()

    def test_crash_between_fsyncs_keeps_count_and_data_consistent(
        self, store_path
    ):
        """Die after the data fsync but before the header fsync: the
        reopened store sees the *old* count with intact records — never
        a count ahead of the data."""
        from tests.faults import FaultFS, InjectedCrash

        fs = FaultFS(crash_at=10**9)  # calibrate below, no crash yet
        store = FeatureStore.create(store_path, dim=2, page_records=4, fs=fs)
        store.append([1.0, 1.0])
        store.flush()
        store.append([2.0, 2.0])
        # The next flush crosses write/fsync/write/fsync; crash before
        # the final fsync (the header may or may not have reached disk
        # — either way the data it could promise is already durable).
        fs.crash_at = fs.count + 3
        with pytest.raises(InjectedCrash):
            store.flush()
        store._file.close()
        with FeatureStore.open(store_path) as reopened:
            assert len(reopened) in (1, 2)
            for slot in range(len(reopened)):
                assert np.allclose(reopened.get(slot), [slot + 1.0] * 2)
