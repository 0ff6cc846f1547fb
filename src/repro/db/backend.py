"""Pluggable row-storage backends for index core arrays.

The 1994 paper prices every query in disk-page touches, yet until this
module the core ``(n, d)`` arrays behind every index lived entirely in
RAM — a database larger than memory could not serve at all.  A
:class:`VectorBackend` owns the row storage behind the operations the
engine actually needs:

``view()``
    The live rows as a read-only ``(n, d)`` array.  Zero-copy for the
    memory backend, an OS-paged memory map for the mmap backend —
    either way safe to hand to query code, and a view taken before an
    ``append`` remains valid (appends never change the bytes of live
    rows).  Callers must refresh any held view after ``take``.
``rows(indices)``
    A copied ``(len(indices), d)`` gather.  On a bounded backend this
    routes through the LRU :class:`~repro.db.bufferpool.BufferPool`, so
    random refinement reads are counted and capped.
``iter_blocks(start, stop)`` / ``run_rows``
    The live rows of ``[start, stop)`` in contiguous ``(start, block)``
    runs of ``run_rows`` rows, sized for the hardware rather than the
    page format.  The memory backend yields cache-sized slices of its
    view (a kernel's temporaries stay in L2); the mmap backend reads
    runs of ``cache_pages`` pages around the pool into a buffer the
    scan owns, so a scan over a larger-than-RAM core holds one run at
    a time and leaves the LRU to the random gathers it is good at.
    Every linear scan walks a core through :func:`sweep`, which cuts
    ``[0, n)`` into run-aligned parts and reads and scores them on all
    usable cores at once.
``append(rows)`` / ``take(keep)``
    The two mutations :class:`~repro.index.base.MetricIndex` performs.
    Both return the fresh live view.
``flush()`` / ``close()``
    Durability point and resource release.  Backend files are derived
    state (the journal + snapshots of ``docs/durability.md`` are the
    durability source), so ``close`` may delete them.

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
import struct
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

_HEADER_BYTES = struct.calcsize("<8sqqq")  # FeatureStore header size

#: Bytes per :meth:`MemoryBackend.iter_blocks` slice: a distance kernel's
#: input-sized temporaries stay in L2 instead of streaming through RAM
#: (n=100k, d=16: 11.4 ms as one whole-matrix call, 5.5 ms blocked).
_BLOCK_BYTES = 1 << 18


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
        return {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "resident": 0,
            "capacity": 0,
        }


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

    :meth:`view` returns the live rows as a **read-only view** of the
    backing array — zero-copy, safe to hand to query code.  Appends
    only ever write *past* the live region and removals are the only
    writes inside it, so a view taken before an append remains valid;
    callers that compact (``take``) must refresh any view they hold,
    which :class:`~repro.index.base.MetricIndex` does by reassigning
    ``_vectors`` on every mutation.
    """

    __slots__ = ("_rows", "_n")

    name = "memory"
    bounded = False

    def __init__(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise IndexingError(
                f"{type(self).__name__} needs an (n, d) array; "
                f"got shape {rows.shape}"
            )
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
        """The backing array (identity only changes on realloc) — lets
        tests assert appends are not recopying storage."""
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


class MmapBackend(VectorBackend):
    """Core rows in a paged :class:`~repro.db.store.FeatureStore` file,
    served with bounded resident memory.

    :meth:`view` is a read-only array over the memory-mapped record region —
    the OS pages rows in on demand and evicts them under pressure, so a
    core larger than RAM is queryable.  :meth:`rows` gathers through
    the store's LRU :class:`~repro.db.bufferpool.BufferPool` and
    :meth:`iter_blocks` reads runs of ``cache_pages`` pages around it
    (:meth:`~repro.db.store.FeatureStore.scan`); the
    hit/miss/eviction counters make the resident bound *observable* —
    every physical page read is a miss, whichever path made it, and
    the pool never holds more than ``cache_pages`` pages by
    construction, which ``tests/test_backend_conformance.py`` asserts
    from the counters.

    Mutations keep the view contract of :class:`MemoryBackend`:
    ``append`` rewrites the tail page with byte-identical data for live
    rows and new bytes only past them, so held views stay valid;
    ``take`` rewrites the survivors into a fresh file and atomically
    replaces the old one (held memmaps keep the old inode — stale but
    consistent — until the caller refreshes, which every consumer does
    by reassigning its view on mutation).

    The file is derived state, not a durability source — the journal
    and snapshots own durability — so :meth:`close` deletes it.  All
    writes route through the injectable
    :class:`~repro.db.fsutil.FileSystem`, putting the page-write,
    header-rewrite, and fsync boundaries under the crash sweep of
    ``tests/test_crash_faults.py``.
    """

    __slots__ = ("_store", "_path", "_fs", "_cache_pages", "_page_records",
                 "_mm", "_mm_rows", "_retired", "_on_close", "_closed")

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
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise IndexingError(
                f"{type(self).__name__} needs an (n, d) array; "
                f"got shape {rows.shape}"
            )
        self._path = Path(path)
        self._fs = fs
        self._cache_pages = int(cache_pages)
        self._page_records = int(page_records)
        self._mm: np.ndarray | None = None
        self._mm_rows = -1
        self._retired = {"hits": 0, "misses": 0, "evictions": 0}
        self._on_close = on_close
        self._closed = False
        self._store = FeatureStore.create(
            self._path,
            dim=int(rows.shape[1]),
            page_records=self._page_records,
            buffer_pages=self._cache_pages,
            overwrite=True,
            fs=fs,
        )
        self.append(rows)

    @property
    def n_rows(self) -> int:
        return len(self._store)

    @property
    def dim(self) -> int:
        return self._store.dim

    @property
    def cache_pages(self) -> int:
        """Buffer-pool capacity in pages (the resident bound)."""
        return self._cache_pages

    @property
    def path(self) -> Path:
        """Location of the backing store file."""
        return self._path

    def view(self) -> np.ndarray:
        n = len(self._store)
        if self._mm is None or self._mm_rows != n:
            if n == 0:
                empty = np.empty((0, self._store.dim))
                empty.setflags(write=False)
                self._mm = empty
            else:
                # A plain-ndarray view of the mapping, taken once: tree
                # traversals slice it per visited node, and slicing an
                # ``np.memmap`` pays its subclass machinery every time.
                self._mm = np.asarray(
                    np.memmap(
                        self._path,
                        dtype="<f8",
                        mode="r",
                        offset=_HEADER_BYTES,
                        shape=(n, self._store.dim),
                    )
                )
            self._mm_rows = n
        return self._mm

    def rows(self, indices: Iterable[int]) -> np.ndarray:
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        return self._store.get_many([int(i) for i in indices])

    @property
    def run_rows(self) -> int:
        return self._cache_pages * self._page_records

    def iter_blocks(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        return self._store.scan(self._cache_pages, start, stop)

    def append(self, rows: np.ndarray) -> np.ndarray:
        self._store.extend(rows)
        self._store.flush()
        self._mm = None
        return self.view()

    def take(self, keep: np.ndarray) -> np.ndarray:
        kept = np.asarray(self.view()[np.asarray(keep, dtype=np.intp)])
        # The store is about to be replaced: carry its counters over.
        totals = self.pool_stats()
        self._retired = {key: totals[key] for key in self._retired}
        self._store.close()
        staging = self._path.with_name(self._path.name + ".compact")
        store = FeatureStore.create(
            staging,
            dim=int(kept.shape[1]),
            page_records=self._page_records,
            buffer_pages=self._cache_pages,
            overwrite=True,
            fs=self._fs,
        )
        store.extend(kept)
        store.close()
        self._fs.replace(staging, self._path)
        self._fs.fsync_dir(self._path.parent)
        self._store = FeatureStore.open(
            self._path, buffer_pages=self._cache_pages, fs=self._fs
        )
        self._mm = None
        return self.view()

    def flush(self) -> None:
        self._store.flush()

    def pool_stats(self) -> dict:
        pool = self._store.pool
        return {
            "hits": self._retired["hits"] + pool.hits,
            "misses": self._retired["misses"] + self._store.page_reads,
            "evictions": self._retired["evictions"] + pool.evictions,
            "resident": 0 if self._closed else pool.resident,
            "capacity": 0 if self._closed else self._cache_pages,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._store.close()  # its counters stay readable
        self._closed = True
        self._mm = None
        for leftover in (self._path, self._path.with_name(self._path.name + ".compact")):
            try:
                os.unlink(leftover)
            except FileNotFoundError:
                pass
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
        return {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "resident": 0,
            "capacity": 0,
        }

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
            live = [backend.pool_stats() for backend in self._open]
            stats = dict(self._retired)
            for key in ("hits", "misses", "evictions"):
                stats[key] += sum(entry[key] for entry in live)
            stats["resident"] = sum(entry["resident"] for entry in live)
            stats["capacity"] = sum(entry["capacity"] for entry in live)
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
