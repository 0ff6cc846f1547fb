"""Pluggable row-storage backends for index core arrays.

The 1994 paper prices every query in disk-page touches.  A
:class:`VectorBackend` owns the ``(n, d)`` core rows behind an index and
serves them through the few operations the engine needs — ``view``,
``rows``, ``iter_blocks``, ``append``, ``take``, ``flush`` and ``close``,
each documented on the protocol class — so a core lives in RAM
(:class:`MemoryBackend`) or in a paged file larger than RAM
(:class:`MmapBackend`, a :class:`~repro.db.store.FeatureStore`).  Every
linear scan walks a core through :func:`sweep`, which cuts ``[0, n)``
into run-aligned parts and reads and scores them on all usable cores at
once.

Backends register under a spec name with :func:`register_backend`; a
third backend needs exactly one decorated factory class to join the
registry *and* the conformance suite (``tests/test_backend_conformance
.py`` parametrizes over :data:`BACKENDS`).  Spec strings are
``"memory"``, ``"mmap"`` (scratch root under ``$TMPDIR``) or
``"mmap:ROOT"``; :func:`resolve_backend_factory` parses them and honours
the ``REPRO_BACKEND`` / ``REPRO_CACHE_PAGES`` environment defaults.

The contract every backend must keep (``docs/storage.md``): results are
**bit-exact** across backends.  The metric kernels are BLAS-free and
row-independent, so computing distances block by block yields the same
bits as one whole-matrix call — which is what the conformance and
serving-parity suites pin down.
"""

from __future__ import annotations

import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.db.fsutil import REAL_FS, FileSystem
from repro.db.store import FeatureStore
from repro.errors import IndexingError, StoreError

__all__ = [
    "VectorBackend",
    "MemoryBackend",
    "MmapBackend",
    "BackendFactory",
    "MemoryBackendFactory",
    "MmapBackendFactory",
    "BACKENDS",
    "register_backend",
    "resolve_backend_factory",
    "sweep",
]

#: Smallest capacity :class:`MemoryBackend` ever allocates (keeps tiny
#: indexes from reallocating on every one of their first few appends).
_MIN_CAPACITY = 8

#: Bytes per :meth:`MemoryBackend.iter_blocks` slice: a distance kernel's
#: input-sized temporaries stay in L2 instead of streaming through RAM
#: (n=100k, d=16: 11.4 ms as one whole-matrix call, 5.5 ms blocked).
_BLOCK_BYTES = 1 << 18

#: :meth:`VectorBackend.pool_stats` of a backend without a buffer pool.
_NO_POOL = {"hits": 0, "misses": 0, "evictions": 0, "resident": 0, "capacity": 0}


def _matrix(backend: "VectorBackend", rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise IndexingError(
            f"{type(backend).__name__} needs an (n, d) array; got shape {rows.shape}"
        )
    return rows


class VectorBackend:
    """The storage protocol behind every index's core ``(n, d)`` rows."""

    __slots__ = ()

    #: Registry spec name of the backend family.
    name: str = "abstract"
    #: True when reads route through a fixed-size buffer pool, i.e. the
    #: engine must touch rows via :meth:`rows`/:meth:`iter_blocks` to
    #: keep resident memory bounded instead of assuming a cheap
    #: whole-matrix :meth:`view`.
    bounded: bool = False

    @property
    def n_rows(self) -> int:
        """Live rows (the length of :meth:`view`)."""
        raise NotImplementedError

    @property
    def dim(self) -> int:
        """Row dimensionality."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self.n_rows

    def view(self) -> np.ndarray:
        """The live ``(n, d)`` rows as a read-only array."""
        raise NotImplementedError

    def rows(self, indices: Iterable[int]) -> np.ndarray:
        """A copied ``(len(indices), d)`` gather of the given rows."""
        raise NotImplementedError

    @property
    def run_rows(self) -> int:
        """Rows per :meth:`iter_blocks` run — the unit a scan reads and
        scores at once, and the alignment of :func:`sweep`'s parts."""
        raise NotImplementedError

    def iter_blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """The live rows ``[start, stop)`` (default: all of them) as
        contiguous ``(start_row, block)`` runs of at most
        :attr:`run_rows` rows, cut every :attr:`run_rows` rows from
        ``start``.

        Each block is read-only and valid until the next block *of the
        same iterator* is requested; copy to keep.  Iterators are
        independent — each reads into its own buffer — so several may
        be read at once from different threads.  On a bounded backend
        no block exceeds ``cache_pages * page_records`` rows.
        """
        raise NotImplementedError

    def append(self, rows: np.ndarray) -> np.ndarray:
        """Append validated rows; returns the fresh live view."""
        raise NotImplementedError

    def take(self, keep: np.ndarray) -> np.ndarray:
        """Keep only the rows indexed by ascending ``keep`` positions;
        returns the fresh live view (held views must be refreshed)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make the current contents durable (no-op in memory)."""

    def close(self) -> None:
        """Release resources; backend files are scratch and may be
        deleted.  Idempotent."""

    def pool_stats(self) -> dict:
        """Buffer-pool counters: hits/misses/evictions/resident/capacity
        (all zero for unbounded backends)."""
        return dict(_NO_POOL)


class MemoryBackend(VectorBackend):
    """A ``(n, d)`` float64 row store with amortized-O(1) appends.

    The classic capacity-doubling vector: rows live at the front of a
    larger backing allocation, appends write into the spare tail, and
    the backing array is only reallocated (and copied once) when the
    spare runs out — so a stream of ``m`` single-row appends costs
    O(n + m) row copies total instead of the O(m·n) that re-stacking
    the whole matrix per append costs.  Removals compact the kept rows
    to the front in one pass and shrink the allocation when occupancy
    falls below a quarter, so capacity stays O(live rows).
    :meth:`view` is a zero-copy read-only view of the backing array.
    """

    __slots__ = ("_rows", "_n")

    name = "memory"
    bounded = False

    def __init__(self, rows: np.ndarray) -> None:
        rows = _matrix(self, rows)
        self._n = int(rows.shape[0])
        capacity = max(self._n, _MIN_CAPACITY)
        self._rows = np.empty((capacity, rows.shape[1]), dtype=np.float64)
        self._rows[: self._n] = rows

    @classmethod
    def adopt(cls, block: np.ndarray) -> "MemoryBackend":
        """A backend whose storage *is* ``block`` — no copy.

        ``block`` must be a C-contiguous float64 ``(n, d)`` array the
        caller gives up: :meth:`take` compacts inside it.  This is how
        an index build hands over the block it arranged
        (:meth:`BackendFactory.adopt`).
        """
        self = cls.__new__(cls)
        self._rows = block
        self._n = int(block.shape[0])
        return self

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return int(self._rows.shape[1])

    @property
    def capacity(self) -> int:
        """Rows the backing allocation can hold before the next realloc."""
        return int(self._rows.shape[0])

    @property
    def base(self) -> np.ndarray:
        """The backing array (identity only changes on realloc): a first
        index build takes it whole when it holds exactly the live rows."""
        return self._rows

    def view(self) -> np.ndarray:
        view = self._rows[: self._n]
        view.setflags(write=False)
        return view

    def rows(self, indices: Iterable[int]) -> np.ndarray:
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        index = np.asarray(indices, dtype=np.intp)
        return self._rows[: self._n][index]  # fancy indexing copies

    @property
    def run_rows(self) -> int:
        return max(1, _BLOCK_BYTES // max(8 * self.dim, 1))

    def iter_blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        view = self.view()[:stop]
        step = self.run_rows
        return ((row, view[row : row + step]) for row in range(start, len(view), step))

    def append(self, rows: np.ndarray) -> np.ndarray:
        """Append validated rows; returns the fresh live view.

        Doubles the backing allocation when the spare tail is too
        small — the single copy that makes every other append free.
        """
        m = int(rows.shape[0])
        needed = self._n + m
        if needed > self._rows.shape[0]:
            capacity = max(needed, 2 * int(self._rows.shape[0]), _MIN_CAPACITY)
            grown = np.empty((capacity, self._rows.shape[1]), dtype=np.float64)
            grown[: self._n] = self._rows[: self._n]
            self._rows = grown
        self._rows[self._n : needed] = rows
        self._n = needed
        return self.view()

    def take(self, keep: np.ndarray) -> np.ndarray:
        """Keep only the rows indexed by ``keep``; returns the live view.

        ``keep`` must be ascending positions into the current live
        region.  The kept rows are compacted to the front (one fancy-
        index copy of the survivors, never of the whole history), and
        the allocation shrinks once live occupancy drops below 1/4 so
        a delete-heavy stream cannot strand an arbitrarily large
        backing array.
        """
        kept = self._rows[keep]  # fancy indexing copies the survivors
        k = int(kept.shape[0])
        if self._rows.shape[0] > max(_MIN_CAPACITY, 4 * k):
            self._rows = np.empty(
                (max(2 * k, _MIN_CAPACITY), self._rows.shape[1]), dtype=np.float64
            )
        self._rows[:k] = kept
        self._n = k
        return self.view()


class MmapBackend(FeatureStore, VectorBackend):
    """Core rows in a paged :class:`~repro.db.store.FeatureStore` file,
    served with bounded resident memory.

    The backend *is* the store.  It adds the protocol's names —
    :meth:`rows` is ``get_many`` (through the store's LRU
    :class:`~repro.db.bufferpool.BufferPool`), :meth:`iter_blocks` is
    ``scan`` (runs of ``cache_pages`` pages read around the pool), and
    :meth:`append` is ``extend`` plus ``flush`` — and :meth:`take`,
    :meth:`pool_stats` and delete-on-close.  :meth:`view` is the store's
    memory map: the OS pages rows in on demand, so a core larger than
    RAM is queryable.  Every physical page read counts as a miss,
    whichever path made it, and the pool never holds more than
    ``cache_pages`` pages, which ``tests/test_backend_conformance.py``
    asserts from the counters.

    A mutation that raises leaves the rows, the view and the counters
    as they were.  The file is derived state, not a durability source —
    the journal and snapshots own durability — so :meth:`close` deletes
    it.
    """

    name = "mmap"
    bounded = True

    def __init__(
        self,
        rows: np.ndarray,
        *,
        path: str | Path,
        cache_pages: int = 8,
        page_records: int = 64,
        fs: FileSystem = REAL_FS,
        on_close: Callable[["MmapBackend"], None] | None = None,
    ) -> None:
        rows = _matrix(self, rows)
        dim = int(rows.shape[1])
        file = self._new_file(path, dim, page_records, overwrite=True, fs=fs)
        super().__init__(path, file, dim, 0, page_records, cache_pages, fs=fs)
        self._staging = self._path.with_name(self._path.name + ".compact")
        self._on_close = on_close
        self.append(rows)

    n_rows = property(FeatureStore.__len__)

    def rows(self, indices: Iterable[int]) -> np.ndarray:
        array = isinstance(indices, np.ndarray)
        return self.get_many(indices.tolist() if array else list(indices))

    @property
    def run_rows(self) -> int:
        return self._pool.capacity * self._page_records

    def iter_blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        return self.scan(self._pool.capacity, start, stop)

    def append(self, rows: np.ndarray) -> np.ndarray:
        before = self._count, self._tail_base, self._tail
        try:
            self.extend(rows)
            self.flush()
        except BaseException:
            # ``extend`` never writes over the old tail's live rows, so
            # restoring these three fields undoes it and the flush.
            self._count, self._tail_base, self._tail = before
            raise
        return self.view()

    def take(self, keep: np.ndarray) -> np.ndarray:
        """Stage the kept rows in a fresh file, flushed; rename it over
        the live one and sync the directory; only then re-point this
        store at it.  An error at any boundary leaves the store on its
        old file, rows and counters untouched."""
        kept = self.view()[np.asarray(keep, dtype=np.intp)]
        staged = FeatureStore.create(
            self._staging, self._dim, page_records=self._page_records,
            overwrite=True, fs=self._fs,
        )
        try:
            staged.extend(kept)
            staged.flush()
            self._fs.replace(self._staging, self._path)
            self._fs.fsync_dir(self._path.parent)
        except BaseException:
            staged._file.close()
            raise
        self._file.close()
        self._file, self._tail_base, self._tail = (
            staged._file, staged._tail_base, staged._tail
        )
        self._count = self._flushed = len(kept)
        self._pool.clear()  # pages of the old file; the counters go on
        self._mm = None
        return self.view()

    def pool_stats(self) -> dict:
        return {
            "hits": self._pool.hits,
            "misses": self.page_reads,
            "evictions": self._pool.evictions,
            "resident": 0 if self._closed else self._pool.resident,
            "capacity": 0 if self._closed else self._pool.capacity,
        }

    def close(self) -> None:
        if self._closed:
            return
        super().close()  # the counters stay readable
        self._path.unlink(missing_ok=True)
        self._staging.unlink(missing_ok=True)
        if self._on_close is not None:
            self._on_close(self)


# ---------------------------------------------------------------------------
# The scan: one block sweep on every usable core
# ---------------------------------------------------------------------------
#: The threads behind :func:`sweep`'s parts other than the first; started
#: by the first sweep that has more than one part, never at import.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's
    core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _sweep_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, _usable_cores() - 1),
                thread_name_prefix="repro-sweep",
            )
        return _pool


def _fill(blocks, fn, out: np.ndarray) -> None:
    for start, block in blocks:
        out[start : start + len(block)] = fn(block)


def sweep(
    core: VectorBackend,
    fn: Callable[[np.ndarray], np.ndarray],
    out: np.ndarray,
) -> None:
    """``out[start:start + len(block)] = fn(block)`` for every block of
    ``core``, reading and scoring on every usable core at once.

    ``[0, n)`` is cut into at most one contiguous part per usable core,
    and never more parts than the core has runs; every part starts on a
    run boundary, so parts share no page and read exactly the runs one
    sequential :meth:`~VectorBackend.iter_blocks` pass would.  Each part
    reads through its own iterator (its own run buffer).  Part 0 runs on
    the calling thread, the others on a process-wide pool of
    ``cores - 1`` threads: NumPy releases the interpreter lock inside
    its kernels on blocks this size, and ``os.preadv`` does for the
    read, so the parts overlap.  ``fn`` must be row-independent and safe
    to call from several threads (the metric kernels are); ``out`` then
    holds the bits of one sequential pass, whatever the part count.

    Returns once no part is still writing into ``out``; the first
    part's error, if any, is raised only then.
    """
    n, run = core.n_rows, core.run_rows
    runs = -(-n // run)
    parts = max(1, min(_usable_cores(), runs))
    cuts = [min(n, runs * part // parts * run) for part in range(parts + 1)]
    # Made here, on the calling thread: a bounded backend checks and
    # flushes its store when an iterator is created, not when it is read.
    blocks = [core.iter_blocks(cuts[part], cuts[part + 1]) for part in range(parts)]
    futures = [_sweep_pool().submit(_fill, rest, fn, out) for rest in blocks[1:]]
    try:
        _fill(blocks[0], fn, out)
    finally:
        wait(futures)
    for future in futures:
        future.result()


# ---------------------------------------------------------------------------
# Factories and the registry
# ---------------------------------------------------------------------------
class BackendFactory:
    """Creates backends for a database's indexes and aggregates their
    pool counters for ``/stats`` and ``/metrics``.

    One factory instance serves every index of a database, so
    ``describe()`` reports service-wide figures.  The
    constructor signature is uniform across backend families —
    ``Factory(root, *, cache_pages, page_records, fs)`` — which is what
    lets the conformance suite (and :func:`resolve_backend_factory`)
    instantiate any registered backend the same way; families that need
    no root or cache simply ignore those arguments.
    """

    name: str = "abstract"
    bounded: bool = False

    def __call__(self, rows: np.ndarray) -> VectorBackend:
        raise NotImplementedError

    def adopt(self, block: np.ndarray) -> VectorBackend:
        """A backend over a block the caller gives up (an index build's
        arranged rows).  A RAM backend keeps the block itself; the
        default writes it out like any other rows."""
        return self(block)

    def pool_stats(self) -> dict:
        return dict(_NO_POOL)

    def describe(self) -> dict:
        """Snapshot for ``/stats``, ``/healthz``, and the CLI banner."""
        return {
            "name": self.name,
            "bounded": self.bounded,
            "pool": self.pool_stats(),
        }


#: Registry of backend families by spec name.  A new backend joins the
#: engine *and* the conformance suite with one decorated factory class.
BACKENDS: dict[str, type[BackendFactory]] = {}


def register_backend(name: str):
    """Class decorator: register a :class:`BackendFactory` under ``name``."""

    def decorate(cls: type[BackendFactory]) -> type[BackendFactory]:
        cls.name = name
        BACKENDS[name] = cls
        return cls

    return decorate


@register_backend("memory")
class MemoryBackendFactory(BackendFactory):
    """Factory for the default in-RAM backend (stateless)."""

    bounded = False

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        cache_pages: int = 0,
        page_records: int = 64,
        fs: FileSystem = REAL_FS,
    ) -> None:
        pass  # nothing to configure; arguments kept for signature parity

    def __call__(self, rows: np.ndarray) -> MemoryBackend:
        return MemoryBackend(rows)

    def adopt(self, block: np.ndarray) -> MemoryBackend:
        return MemoryBackend.adopt(block)


@register_backend("mmap")
class MmapBackendFactory(BackendFactory):
    """Factory for on-disk cores under one root directory.

    Allocates a unique file per backend (indexes rebuild, each feature
    holds its own core), keeps cumulative pool counters across closed
    backends, and reports the live resident total — the figures behind
    the ``repro_backend_pool`` metric family.
    """

    bounded = True

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        cache_pages: int = 8,
        page_records: int = 64,
        fs: FileSystem = REAL_FS,
    ) -> None:
        if cache_pages < 1:
            raise StoreError(f"cache_pages must be >= 1; got {cache_pages}")
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-mmap-")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache_pages = int(cache_pages)
        self.page_records = int(page_records)
        self._fs = fs
        self._lock = threading.Lock()
        self._seq = 0
        self._open: list[MmapBackend] = []
        self._retired = {"hits": 0, "misses": 0, "evictions": 0}

    def __call__(self, rows: np.ndarray) -> MmapBackend:
        with self._lock:
            path = self.root / f"core-{self._seq:06d}.feat"
            self._seq += 1
        backend = MmapBackend(
            rows,
            path=path,
            cache_pages=self.cache_pages,
            page_records=self.page_records,
            fs=self._fs,
            on_close=self._retire,
        )
        with self._lock:
            self._open.append(backend)
        return backend

    def _retire(self, backend: MmapBackend) -> None:
        with self._lock:
            if backend in self._open:
                self._open.remove(backend)
                final = backend.pool_stats()
                for key in ("hits", "misses", "evictions"):
                    self._retired[key] += final[key]

    def pool_stats(self) -> dict:
        with self._lock:
            stats = dict(self._retired, resident=0, capacity=0)
            for backend in self._open:
                for key, value in backend.pool_stats().items():
                    stats[key] += value
            return stats

    def describe(self) -> dict:
        info = super().describe()
        info["root"] = str(self.root)
        info["cache_pages"] = self.cache_pages
        info["page_records"] = self.page_records
        return info


def resolve_backend_factory(
    backend: "str | BackendFactory | None",
    *,
    cache_pages: int | None = None,
    fs: FileSystem = REAL_FS,
) -> BackendFactory:
    """Turn a backend spec into a factory object.

    ``backend`` may be an existing factory (returned as-is), a spec
    string (``"memory"``, ``"mmap"``, ``"mmap:ROOT"``), or ``None`` for
    the environment default: ``$REPRO_BACKEND`` (or ``"memory"``).  ``cache_pages`` defaults to
    ``$REPRO_CACHE_PAGES`` (or 8) for backends that page.
    """
    if backend is not None and not isinstance(backend, str):
        return backend
    spec = backend if backend is not None else os.environ.get("REPRO_BACKEND")
    spec = spec or "memory"
    name, _, root = spec.partition(":")
    if name not in BACKENDS:
        raise StoreError(
            f"unknown backend {name!r}; registered: {sorted(BACKENDS)}"
        )
    if cache_pages is None:
        cache_pages = int(os.environ.get("REPRO_CACHE_PAGES", "8"))
    return BACKENDS[name](root or None, cache_pages=cache_pages, fs=fs)
