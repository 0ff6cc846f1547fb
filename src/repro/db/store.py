"""Paged on-disk feature store.

One file per feature: a fixed header followed by fixed-size pages, each
holding ``page_records`` float64 vectors of the declared dimensionality.
Slots are dense integers in append order, so ``slot -> (page, offset)`` is
pure arithmetic and a record read costs exactly one page read — which the
LRU :class:`~repro.db.bufferpool.BufferPool` then absorbs or not,
depending on locality.  That read path is the subject of experiment F6.

File layout (little-endian)::

    offset 0   magic     8 bytes  b"RFSTORE1"
    offset 8   dim       int64
    offset 16  count     int64    number of appended records
    offset 24  page_recs int64    records per page
    offset 32  pages...           count/page_recs pages, zero-padded tail

This module is the one place that knows the layout; the
:class:`~repro.db.backend.MmapBackend` core is a subclass.

The header's ``count`` is rewritten on :meth:`flush`/:meth:`close`; a
crash between appends loses at most the unflushed tail (append-only, no
torn records within the acknowledged count).  :meth:`flush` orders its
syncs — tail page fsync'd *before* the header that names it — so the
count never points past durable data, and every write/fsync routes
through an injectable :class:`~repro.db.fsutil.FileSystem` so the
crash sweep (``tests/test_crash_faults.py``) can cut power at each
boundary.
"""

from __future__ import annotations

import io
import os
import struct
import threading
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import StoreError
from repro.db.bufferpool import BufferPool
from repro.db.fsutil import REAL_FS, FileSystem

__all__ = ["FeatureStore"]

_MAGIC = b"RFSTORE1"
_HEADER = struct.Struct("<8sqqq")
_FLOAT_SIZE = 8


class FeatureStore:
    """Append-only store of fixed-dimension float64 vectors.

    Use :meth:`create` for a new file and :meth:`open` for an existing
    one; both return a ready store.  The store is a context manager and
    must be closed (or flushed) for the header count to be durable.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "color.feat")
    >>> with FeatureStore.create(path, dim=4) as store:
    ...     slot = store.append([0.1, 0.2, 0.3, 0.4])
    >>> with FeatureStore.open(path) as store:
    ...     store.get(slot).tolist()
    [0.1, 0.2, 0.3, 0.4]
    """

    def __init__(
        self,
        path: str | Path,
        file: io.BufferedRandom,
        dim: int,
        count: int,
        page_records: int,
        buffer_pages: int,
        fs: FileSystem = REAL_FS,
    ) -> None:
        self._path = Path(path)
        self._file = file
        self._fs = fs
        self._dim = dim
        self._count = count
        self._page_records = page_records
        self._page_bytes = page_records * dim * _FLOAT_SIZE
        self._closed = False
        self._mm: np.ndarray | None = None  # the cached :meth:`view`
        self._pool = BufferPool(buffer_pages, self._read_page)
        self._scanned_pages = 0
        self._scan_lock = threading.Lock()  # a sweep's parts count at once
        self._flushed = count  # records the file itself holds
        # Tail page under construction, kept out of the pool until full:
        # rows ``[0, count - tail_base)`` of the buffer are live.
        self._tail_base = count - (count % page_records) if page_records else 0
        if count % page_records:
            # Re-open mid-page: load the partial tail into memory.
            self._tail = self._read_page(count // page_records)
        else:
            self._tail = np.zeros((page_records, dim))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        dim: int,
        *,
        page_records: int = 64,
        buffer_pages: int = 8,
        overwrite: bool = False,
        fs: FileSystem = REAL_FS,
    ) -> "FeatureStore":
        """Create a new store file.

        Raises
        ------
        StoreError
            If the file exists (unless ``overwrite``) or parameters are bad.
        """
        file = cls._new_file(path, dim, page_records, overwrite=overwrite, fs=fs)
        return cls(path, file, dim, 0, page_records, buffer_pages, fs=fs)

    @staticmethod
    def _new_file(
        path: str | Path, dim: int, page_records: int, *, overwrite: bool,
        fs: FileSystem,
    ) -> io.BufferedRandom:
        """A new file holding only the header of an empty store."""
        if dim < 1:
            raise StoreError(f"dim must be >= 1; got {dim}")
        if page_records < 1:
            raise StoreError(f"page_records must be >= 1; got {page_records}")
        path = Path(path)
        if path.exists() and not overwrite:
            raise StoreError(f"store file already exists: {path}")
        file = open(path, "w+b")
        try:
            fs.write(file, _HEADER.pack(_MAGIC, dim, 0, page_records))
            file.flush()
        except BaseException:
            file.close()
            raise
        return file

    @classmethod
    def open(
        cls, path: str | Path, *, buffer_pages: int = 8, fs: FileSystem = REAL_FS
    ) -> "FeatureStore":
        """Open an existing store file for reading and appending."""
        path = Path(path)
        if not path.exists():
            raise StoreError(f"store file does not exist: {path}")
        file = open(path, "r+b")
        try:
            header = file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise StoreError(f"store file too short for header: {path}")
            magic, dim, count, page_records = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise StoreError(f"bad store magic in {path}: {magic!r}")
            if dim < 1 or count < 0 or page_records < 1:
                raise StoreError(
                    f"corrupt store header in {path}: dim={dim}, count={count}, "
                    f"page_records={page_records}"
                )
            # Raises on a truncated partial tail page.
            return cls(path, file, dim, count, page_records, buffer_pages, fs=fs)
        except BaseException:
            file.close()
            raise

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._file.close()
        self._closed = True
        self._mm = None

    def __enter__(self) -> "FeatureStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """Location of the backing file."""
        return self._path

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._dim

    @property
    def pool(self) -> BufferPool:
        """The read cache (its counters drive experiment F6)."""
        return self._pool

    @property
    def page_reads(self) -> int:
        """Physical page reads performed so far: pool misses plus every
        page a :meth:`scan` read around the pool."""
        return self._pool.misses + self._scanned_pages

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Record I/O
    # ------------------------------------------------------------------
    def append(self, vector: np.ndarray) -> int:
        """Append a vector; returns its slot number."""
        slot = self._count
        self.extend(np.asarray(vector, dtype=np.float64).reshape(1, -1))
        return slot

    def extend(self, matrix: np.ndarray) -> None:
        """Append every row of an ``(m, dim)`` matrix, in row order.

        The bytes on disk are those of ``m`` :meth:`append` calls, but
        the rows are validated once and written in bulk: the started
        tail page is topped up, all further full pages go out in one
        write, and the remainder becomes the new tail.  The count and
        tail move only after the writes, and a completed tail page moves
        to a fresh buffer, so an extend that raises changes nothing.
        """
        self._check_open()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self._dim:
            raise StoreError(
                f"rows of shape {matrix.shape} do not fit a store of dim {self._dim}"
            )
        if not np.all(np.isfinite(matrix)):
            raise StoreError("cannot store non-finite vector")
        per_page = self._page_records
        count, base, tail = self._count, self._tail_base, self._tail
        fill = count - base
        if fill:
            top = matrix[: per_page - fill]
            matrix = matrix[len(top) :]
            tail[fill : fill + len(top)] = top  # past the live rows
            count += len(top)
            if count - base == per_page:
                self._write_pages(tail, base)
                base, tail = count, np.zeros_like(tail)
        whole = len(matrix) - len(matrix) % per_page
        if whole:
            self._write_pages(matrix[:whole], base)
            base += whole
        tail[: len(matrix) - whole] = matrix[whole:]
        self._count, self._tail_base, self._tail = count + len(matrix), base, tail

    def get(self, slot: int) -> np.ndarray:
        """Read the vector at ``slot`` (through the buffer pool)."""
        self._check_open()
        if not 0 <= slot < self._count:
            raise StoreError(f"slot {slot} out of range [0, {self._count})")
        if slot >= self._tail_base:
            return self._tail[slot - self._tail_base].copy()
        page_index, offset = divmod(slot, self._page_records)
        return self._pool.get(page_index)[offset].copy()

    def get_many(self, slots: list[int]) -> np.ndarray:
        """Read several slots, in slot order for page locality; shape
        ``(len(slots), dim)``."""
        result = np.empty((len(slots), self._dim))
        for position in np.argsort(slots, kind="stable"):
            result[position] = self.get(int(slots[position]))
        return result

    def scan(
        self, run_pages: int, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Records ``[start, stop)`` (default: all) in order, as
        ``(start_slot, block)`` runs of up to ``run_pages`` pages each.

        The store is checked and flushed when the scan is asked for, not
        when its first run is read, so several scans can be created on
        one thread and read on others.  Each run is one positional read
        (no file position shared with the pool's fetches or another
        scan) into a buffer this scan owns: a block is read-only and
        valid until the scan's next one is requested.  Pages read count
        in :attr:`page_reads` (a page a run covers in part counts whole);
        the pool is neither consulted nor filled — a scan larger than it
        would only flush it.
        """
        self._check_open()
        if self._flushed != self._count:
            self.flush()
        stop = self._count if stop is None else stop
        return self._read_runs(run_pages * self._page_records, start, stop)

    def _read_runs(
        self, run_rows: int, start: int, stop: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        per_page = self._page_records
        row_bytes = self._dim * _FLOAT_SIZE
        buffer = np.empty((min(run_rows, stop - start), self._dim), dtype="<f8")
        block = buffer.view()
        block.setflags(write=False)
        fd = self._file.fileno()
        for first in range(start, stop, run_rows):
            rows = min(run_rows, stop - first)
            got = os.preadv(fd, [buffer[:rows]], _HEADER.size + first * row_bytes)
            if got != rows * row_bytes:
                raise StoreError(
                    f"store truncated: {got} of {rows * row_bytes} bytes "
                    f"at slot {first}"
                )
            pages = (first + rows - 1) // per_page - first // per_page + 1
            with self._scan_lock:
                self._scanned_pages += pages
            yield first, block[:rows]

    def view(self) -> np.ndarray:
        """The records as a read-only ``(n, dim)`` memory map of the
        open file (flushed first), around the pool.  Appends never
        change counted bytes, so an earlier view stays valid.  Cached
        per record count as a plain ``ndarray``: traversals slice it per
        node, and slicing an ``np.memmap`` pays its subclass machinery.
        """
        self._check_open()
        if self._flushed != self._count:
            self.flush()
        if self._mm is None or len(self._mm) != self._count:
            if self._count == 0:
                self._mm = np.empty((0, self._dim))
                self._mm.setflags(write=False)
            else:
                try:
                    mapped = np.memmap(
                        self._file,
                        dtype="<f8",
                        mode="r",
                        offset=_HEADER.size,
                        shape=(self._count, self._dim),
                    )
                except ValueError as exc:  # the file is shorter than the map
                    raise StoreError(f"store truncated: {exc}") from None
                self._mm = np.asarray(mapped)
        return self._mm

    def read_all(self) -> np.ndarray:
        """Materialize the whole store as an ``(n, dim)`` array: a copy
        of :meth:`view`, after a flush.  Used to load a snapshot."""
        self.flush()
        return np.array(self.view())

    def flush(self) -> None:
        """Write the tail page (padded) and a current header to disk.

        Two-phase, in the atomic-save discipline of ``docs/durability
        .md``: the data pages are fsync'd **before** the header that
        names them is written and fsync'd in turn, so a crash never
        leaves a ``count`` pointing past durable data.
        """
        self._check_open()
        if self._count > self._tail_base:
            self._write_pages(
                self._tail[: self._count - self._tail_base], self._tail_base
            )
        self._fs.fsync(self._file)
        self._file.seek(0)
        self._fs.write(
            self._file,
            _HEADER.pack(_MAGIC, self._dim, self._count, self._page_records),
        )
        self._fs.fsync(self._file)
        self._flushed = self._count

    # ------------------------------------------------------------------
    # Page I/O
    # ------------------------------------------------------------------
    def _page_offset(self, page_index: int) -> int:
        return _HEADER.size + page_index * self._page_bytes

    def _read_page(self, page_index: int) -> np.ndarray:
        self._file.seek(self._page_offset(page_index))
        raw = self._file.read(self._page_bytes)
        if len(raw) < self._page_bytes:
            # Every page the header counts was written whole (the tail
            # page padded), so a short read is a truncated file.
            raise StoreError(
                f"store truncated: {len(raw)} of {self._page_bytes} bytes "
                f"in page {page_index}"
            )
        return np.frombuffer(raw, dtype="<f8").reshape(-1, self._dim).copy()

    def _write_pages(self, rows: np.ndarray, first: int) -> None:
        """Write ``rows`` from slot ``first`` (a page boundary) in one
        write, a started last page zero-padded; the caller moves the
        tail.  (No pool entry goes stale — :meth:`get` serves the tail
        from memory, so the pool only holds pages below it.)"""
        self._file.seek(self._page_offset(first // self._page_records))
        pad = -len(rows) % self._page_records
        if pad:
            rows = np.concatenate([rows, np.zeros((pad, self._dim))])
        # The rows' own buffer, not ``tobytes()``: a bulk write must not
        # hold a second copy of the matrix.
        self._fs.write(
            self._file, memoryview(np.ascontiguousarray(rows, dtype="<f8"))
        )

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"store is closed: {self._path}")

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"count={self._count}"
        return (
            f"{type(self).__name__}(path={str(self._path)!r}, dim={self._dim}, {state})"
        )
