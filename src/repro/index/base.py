"""The common interface of all similarity indexes.

An index is constructed over an initial set of ``(id, vector)`` pairs
with a chosen metric and then answers two query types:

* ``range_search(query, radius)`` — every item within ``radius`` of the
  query (closed ball), sorted by distance;
* ``knn_search(query, k)`` — the ``k`` nearest items, sorted by distance
  (fewer if the index holds fewer than ``k``).

Both return lists of :class:`Neighbor` tuples.  Ties at equal distance
are broken by insertion order so results are deterministic.  After each
query, :attr:`MetricIndex.last_stats` holds the cost counters.

Both also exist in batched form — ``range_search_batch(queries, radius)``
and ``knn_search_batch(queries, k)`` take an ``(m, d)`` query matrix and
return one result list per query.  A batch runs the scalar body once per
row, so result ``i`` is query ``i``'s scalar answer, bit for bit, and
after a batch :attr:`MetricIndex.last_stats` holds the counters' sum.

Mutation protocol (see ``docs/mutability.md``)
----------------------------------------------
An index holds rows, not liveness: one :class:`~repro.db.idmap.LiveMask`
(:attr:`MetricIndex.live_mask` — a database's, shared by its indexes,
or the index's own) says which rows answer.  The k-NN loops check it
when they offer a candidate (:func:`offer_candidates`), the pending
scan, the linear and LAESA selections and every range hit check it too;
dead rows still route and serve as pivots, so a query asks for ``k``.
A mutation appends rows with their flags clear
(:meth:`MetricIndex.append_rows`), flips flags — its commit point — and
then :meth:`MetricIndex.reclaim` drops dead rows: a compaction for the
linear scan and LAESA, a threshold rebuild for the trees.  Rows the
structure does not hold wait in the **pending buffer** — all of them
before the first build, a static tree's inserts after it — scanned per
query in one counted batched evaluation.

Row ownership (see ``docs/storage.md``)
---------------------------------------
An index is the one holder of its rows: its
:class:`~repro.db.backend.VectorBackend` and its pending buffer.  A
build works on one block the index owns (:meth:`MetricIndex.build`
copies its input once, a first :meth:`MetricIndex.rebuild` takes the
pending block), ``_build`` may permute it and the ids beside it in
place — the static trees arrange it in tree order — and the backend
then *takes* the block.  ``_vectors`` is the backend's view of it,
``_ids`` the id of every row, ``_row_of`` the id → row map.
:meth:`MetricIndex.live_ids` and :meth:`MetricIndex.vectors_of` are how
everything else — the database's ``vector_of`` / ``feature_matrix`` /
``save`` and the index's own :meth:`MetricIndex.rebuild` — reads the
rows back.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from heapq import heappush, heapreplace
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

from repro.db.backend import (
    BackendFactory,
    MemoryBackend,
    MemoryBackendFactory,
    VectorBackend,
)
from repro.db.idmap import IdMap, LiveMask
from repro.errors import IndexingError
from repro.index.stats import BuildStats, SearchStats
from repro.metrics.base import Metric

__all__ = [
    "Neighbor",
    "MetricIndex",
    "check_count",
    "neighbors_at",
    "offer_candidates",
    "reorder_rows",
]


class Neighbor(NamedTuple):
    """One search result: the item's id and its distance to the query."""

    id: int
    distance: float


def offer_candidates(
    heap: list[tuple[float, int]], k: int, item_ids, distances, live: np.ndarray
) -> float:
    """Offer ``(id, distance)`` pairs to a k-NN loop's ``k``-best heap.

    The heap is a max-heap of ``(-distance, -id)``: among equal
    distances the larger id is evicted first, matching the documented
    tie-break.  Only live items enter — ``live`` is the live mask's
    flags, checked for an item that would enter — so tau, the returned
    k-th best distance (infinite until ``k`` candidates are held), is
    the k-th best *live* distance.  An item farther than tau cannot
    enter, so the flat tree loops only call this for distances ``<= tau``.
    """
    for item_id, d in zip(item_ids, distances):
        entry = (-d, -item_id)
        if len(heap) < k:
            if live[item_id]:
                heappush(heap, entry)
        elif entry > heap[0] and live[item_id]:
            heapreplace(heap, entry)
    return -heap[0][0] if len(heap) == k else np.inf


def neighbors_at(
    ids: np.ndarray, rows: np.ndarray, distances: np.ndarray
) -> list[Neighbor]:
    """A :class:`Neighbor` for each selected row only — the scans and
    the pending overlay select with array operations first."""
    return [Neighbor(i, d) for i, d in zip(ids[rows].tolist(), distances[rows].tolist())]


#: Relative allowance for rounding in every prune test of the VP-tree,
#: the GNAT and LAESA.  A bound is a difference of rounded distances, so
#: an exact bound can come out a few ulps above the computed distance of
#: an item it bounds — enough to prune a tie at the k-th distance or an
#: item exactly at the radius.  A test prunes only by more than
#: ``_ROUNDING_SLACK`` times the distances it combines: far above any
#: kernel's rounding error, far below a gap that prunes anything.
_ROUNDING_SLACK = 1e-9


#: Largest temporary a build step allocates over a node's rows: the
#: partition gather (:func:`reorder_rows`) and the distance sweeps
#: (:meth:`MetricIndex._build_dist_batch`) work through bigger nodes in
#: pieces, so a build's peak is its working block, not a multiple of it.
#: A traversal round's gather (:meth:`MetricIndex._evaluate`) too.
_BUILD_TEMP_BYTES = 1 << 23


#: Share of the k-NN frontier, nearest bound first, that one round of
#: :meth:`MetricIndex._knn_search` evaluates (at least one entry); the
#: rest is re-tested against the tau the round leaves.  Measured on the
#: VP-tree over the ``benchmarks/e2e`` data (d=16, leaf 16, k=10, 100
#: queries): 1.0 (every surviving entry, level-synchronous) makes 27.9
#: calls per k-NN at n=200k but costs more distances than the
#: depth-first walk (12 437.9 against 12 403.9; 1 351.7 against 1 349.9
#: at n=20k); 0.8 makes 51.0 calls for 12 378.6 (1 341.4 at n=20k); 0.5
#: gives the same counts in 83.8 calls.  The GNAT and the k-d tree keep
#: it: their mean k-NN distances move by at most +1.5 %
#: (``docs/indexes.md``, which also has the curve).
_BATCH_FRACTION = 0.8

#: The distances of a node without rows (a k-d tree's inner node).
_NO_ROWS = np.empty(0)


def _row_ranges(start: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, first)``: rows ``[start[i], start[i] + width[i])`` of
    every node in order, concatenated, and where each node's first row
    sits among them."""
    first = width.cumsum() - width
    total = int(first[-1] + width[-1]) if width.size else 0
    if total == width.size and (width == 1).all():  # pivots only (or one-row buckets)
        return start, first
    return np.arange(total) + (start - first).repeat(width), first


def node_table(
    start: Sequence[int], stop: Sequence[int], inner: np.ndarray, width: int
) -> np.ndarray:
    """A flat tree's :attr:`MetricIndex._node_rows` table: an inner node
    evaluates ``width`` rows from its ``start``, a leaf its whole
    ``[start, stop)`` bucket."""
    start, stop = np.asarray(start, dtype=np.int64), np.asarray(stop, dtype=np.int64)
    return np.column_stack((start, np.where(inner, width, stop - start), inner))


def reorder_rows(rows: np.ndarray, order: np.ndarray) -> None:
    """``rows[:] = rows[order]`` in place for a C-contiguous ``(n, d)``
    block, as many columns at a time as :data:`_BUILD_TEMP_BYTES` allows
    — all of them for an ordinary node, a few for a huge one (at n=200k,
    d=16 that is also 3x faster: the 24 MiB temporary costs more in
    page faults than the strided passes do)."""
    width = max(1, _BUILD_TEMP_BYTES // max(8 * rows.shape[0], 1))
    for start in range(0, rows.shape[1], width):
        columns = slice(start, start + width)
        rows[:, columns] = rows[order, columns]


def check_count(
    name: str, value: int, minimum: int, error: type[Exception] = IndexingError
) -> int:
    """``value`` as an ``int``, or ``error`` unless it is an integer
    ``>= minimum`` — a count parameter (bucket size, fan-out, pivots,
    ``k``, a distance budget).  NaN passes every ``<`` check and ``2.5``
    counts nothing, so both are refused where they enter rather than
    truncated or failing mid-search."""
    if not isinstance(value, Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}; got {value!r}")
    return int(value)


#: The default storage for index cores; ``ImageDatabase`` overrides
#: :attr:`MetricIndex.backend_factory` per index when configured with a
#: different backend (``docs/storage.md``).
_DEFAULT_BACKEND_FACTORY = MemoryBackendFactory()


def _as_ids(ids: Sequence[int]) -> np.ndarray:
    """``ids`` as a fresh 1-D int64 array, without a Python int per id."""
    try:
        return np.array(
            ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64
        ).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        raise IndexingError("ids must be 64-bit integers") from None


def _repeats(ids: np.ndarray) -> bool:
    """True when an id occurs twice (sorting only ids not already ascending)."""
    if (ids[1:] > ids[:-1]).all():
        return False
    ordered = np.sort(ids)
    return bool((ordered[1:] == ordered[:-1]).any())


class _PendingRows(IdMap):
    """The rows an index holds outside its structure, in arrival order:
    an id column whose row ``i`` is row ``i`` of one growable block (a
    :class:`~repro.db.backend.MemoryBackend`, made by the first append)."""

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        super().__init__()
        self._rows: MemoryBackend | None = None

    @property
    def block(self) -> np.ndarray:
        """The held rows as one read-only ``(p, d)`` view."""
        assert self._rows is not None
        return self._rows.view()

    @property
    def dim(self) -> int | None:
        """Width of the held rows; ``None`` before the first append."""
        return None if self._rows is None else self._rows.dim

    def append(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Hold validated new rows: the one copy an insert makes."""
        if self._rows is None:
            self._rows = MemoryBackend(vectors)
        else:
            self._rows.append(vectors)
        self.extend(ids)

    def keep(self, keep: np.ndarray) -> None:
        """Keep only the rows flagged in ``keep`` (one compacting copy)."""
        assert self._rows is not None
        rows = np.flatnonzero(keep)
        self._rows.take(rows)
        IdMap.__init__(self, self.ids[rows])

    def vectors_of(self, rows: np.ndarray) -> np.ndarray:
        """Held rows by row number; asked for every row in order (a
        ``save`` before the first build), the block itself, read-only."""
        assert self._rows is not None
        if len(rows) == len(self) and np.array_equal(rows, np.arange(len(self))):
            return self.block
        return self._rows.rows(rows)

    def hand_over(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ids and rows flagged in ``keep``, as arrays the caller now
        owns: the block itself when its allocation holds exactly those
        rows, else one compacting copy.  The buffer must not be used
        afterwards."""
        assert self._rows is not None
        block, n = self._rows.base, len(self)
        if not keep.all():
            return self.ids[keep], block[:n][keep]
        return self.ids.copy(), block if block.shape[0] == n else block[:n].copy()


class MetricIndex(ABC):
    """Base class: validation, bookkeeping, and the query protocol.

    Subclasses implement ``_build`` and either ``_range_search`` and
    ``_knn_search`` or the two round hooks, the :attr:`_node_rows` table
    and :meth:`_child_bounds`, that this class's frontier traversals (the
    static trees' one range loop and one k-NN loop) walk; this class
    owns operand validation, result ordering, and the stats lifecycle.
    Every row a query hands to the metric's ``_kernel`` must be counted
    in :attr:`last_stats`: :meth:`_dist_batch` counts as it evaluates,
    and the traversal loops, which call the kernel directly, count in
    locals and write them back once through :meth:`_record`.
    """

    #: Set False in subclasses that tolerate non-metric distances.
    requires_metric: bool = True

    #: Fraction of the core that pending plus dead rows must reach to
    #: trigger a structural rebuild; see :meth:`_reclaim_core`.
    rebuild_threshold: float = 0.25
    #: Pending plus dead rows below which a rebuild never triggers (lets
    #: small indexes absorb a few mutations without thrashing).
    rebuild_min: int = 32

    #: Storage factory for the core rows (and any per-index side tables,
    #: e.g. LAESA's pivot table).  A class-level default so the eight
    #: index constructors stay untouched; :class:`~repro.db.database.
    #: ImageDatabase` assigns its configured factory on the instance
    #: before :meth:`build`.
    backend_factory: BackendFactory = _DEFAULT_BACKEND_FACTORY

    def __init__(self, metric: Metric) -> None:
        if not isinstance(metric, Metric):
            raise IndexingError(f"expected a Metric; got {type(metric).__name__}")
        if self.requires_metric and not metric.is_metric:
            raise IndexingError(
                f"{type(self).__name__} relies on the triangle inequality, but "
                f"{metric.name} is not a metric; use LinearScanIndex instead"
            )
        self._metric = metric
        #: The live flag of every id.  The index's own; a database
        #: replaces it with its catalog's before the first row arrives
        #: and is then the one that flips flags.
        self.live_mask = LiveMask()
        #: Core row of every id physically inside the structure, dead
        #: ones included — the map every by-id read and every mutation
        #: check goes through.  Its id column is :attr:`_ids`.
        self._row_of = IdMap()
        self._vectors: np.ndarray | None = None
        self._core: VectorBackend | None = None
        self._build_stats = BuildStats()
        self._reset_stats()
        #: Rows the concrete structure does not hold: all of them before
        #: the first build, pending inserts of a static tree after it.
        self._pending = _PendingRows()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def _ids(self) -> np.ndarray:
        """Id of every core row, in row order (int64; the traversals
        convert the few they report with ``.tolist()``)."""
        return self._row_of.ids

    @property
    def metric(self) -> Metric:
        """The distance function the index was built with."""
        return self._metric

    @property
    def size(self) -> int:
        """Number of *live* held items (pending rows included)."""
        return len(self._live_held())

    @property
    def n_pending(self) -> int:
        """Rows the structure holds in its pending buffer."""
        return len(self._pending)

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed vectors."""
        dim = self._core.dim if self._core is not None else self._pending.dim
        if dim is None:
            raise IndexingError("index has not been built yet")
        return dim

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` or a first :meth:`rebuild` succeeded."""
        return self._core is not None

    @property
    def build_stats(self) -> BuildStats:
        """Cost counters of the last :meth:`build`."""
        return self._build_stats

    @property
    def last_stats(self) -> SearchStats:
        """Cost counters of the most recent query (sum over a batch)."""
        return self._search_stats

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, ids: Sequence[int], vectors: np.ndarray) -> "MetricIndex":
        """Build the index over ``(ids[i], vectors[i])`` pairs, all live:
        distinct integer ids, one per row of an ``(n, d)`` float array
        with ``n >= 1``.  Returns ``self``, for chaining."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise IndexingError(
                f"vectors must be a non-empty (n, d) array; got shape {vectors.shape}"
            )
        ids = _as_ids(ids)
        if ids.shape[0] != vectors.shape[0]:
            raise IndexingError(
                f"{ids.shape[0]} ids but {vectors.shape[0]} vectors"
            )
        if _repeats(ids):
            raise IndexingError("duplicate ids in build input")
        if not np.all(np.isfinite(vectors)):
            raise IndexingError("vectors contain non-finite values")
        self._metric._check_dim(vectors.shape[1])  # kernels run unchecked
        self.live_mask.grow(int(ids.max()) + 1, int(ids.min()))
        self._build_owned(ids, np.array(vectors, dtype=np.float64, order="C"))
        self.live_mask.set(ids)
        return self

    def _build_owned(self, ids: np.ndarray, rows: np.ndarray) -> "MetricIndex":
        """Build over validated int64 ``ids`` and a C-contiguous float64
        block the index owns, which the backend then takes (no copy); the
        pending buffer is cleared only once the new core is in place."""
        self._build_stats = BuildStats()
        self._build(ids, rows)
        previous = self._core
        self._core = self.backend_factory.adopt(rows)
        self._pending = _PendingRows()
        if previous is not None:
            previous.close()
        self._vectors = self._core.view()
        self._row_of = IdMap(ids)
        return self

    def close(self) -> None:
        """Release the index's storage backend (idempotent; a bounded
        backend may delete its files, so do not query afterwards)."""
        if self._core is not None:
            self._core.close()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_batch(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Insert live ``(ids[i], vectors[i])`` items: :meth:`append_rows`,
        set their flags, :meth:`reclaim`.  The next query sees them, with
        exact results and distance accounting (``docs/mutability.md``)."""
        ids = self.append_rows(ids, vectors)
        if len(ids):
            self.live_mask.set(ids)
            self.reclaim()

    def append_rows(self, ids: Sequence[int], vectors: np.ndarray) -> np.ndarray:
        """Hold new rows, their live flags untouched (so invisible until
        set); returns the ids as int64.

        An unbuilt index holds them in its pending buffer for the first
        :meth:`rebuild`; once built, the M-tree, the linear scan and
        LAESA grow in place and the static trees buffer them.

        Raises
        ------
        IndexingError
            If an id is already held (live or dead), ids repeat, or
            vectors have the wrong shape or non-finite values; nothing
            changes then.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        dim = self._core.dim if self._core is not None else self._pending.dim
        if vectors.ndim != 2 or (dim is not None and vectors.shape[1] != dim):
            raise IndexingError(
                f"vectors must be a 2-D array of dim {dim}; got shape {vectors.shape}"
            )
        ids = _as_ids(ids)
        if _repeats(ids):
            raise IndexingError("duplicate ids in insert input")
        clashes = self._holds(ids)
        if clashes.any():
            raise IndexingError(f"id {ids[clashes].min()} is already indexed")
        if len(ids) != vectors.shape[0]:
            raise IndexingError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
        if not len(ids):
            return ids
        if not np.all(np.isfinite(vectors)):
            raise IndexingError("vectors contain non-finite values")
        self._metric._check_dim(vectors.shape[1])
        self.live_mask.grow(int(ids.max()) + 1, int(ids.min()))
        if self._core is None:
            self._pending.append(ids, vectors)
        else:
            self._insert_batch(ids, vectors)
        return ids

    def delete(self, ids: Sequence[int]) -> None:
        """Delete live items: clear their flags, :meth:`reclaim`.  All or
        nothing: should the reclaim fail, the flags are set again.

        Raises
        ------
        IndexingError
            If an id is not held, already deleted, or ids repeat.
        """
        ids = _as_ids(ids)
        if not len(ids):
            return
        if _repeats(ids):
            raise IndexingError("duplicate ids in delete input")
        live = self._holds(ids) & self.live_mask.of(ids)
        if not live.all():
            raise IndexingError(f"id {ids[~live].min()} is not indexed")
        self.live_mask.set(ids, False)
        try:
            self.reclaim()
        except BaseException:
            self.live_mask.set(ids)
            raise

    def reclaim(self) -> None:
        """Drop held rows whose flag is clear (after a commit, never before).

        Core rows go as :meth:`_reclaim_core` says — the one step that
        can fail, and it fails holding every row — then dead pending
        rows; before the first build only once they outnumber the live
        ones, so a delete stays amortised O(1).
        """
        if self._core is not None:
            self._reclaim_core()
        live = self.live_mask.of(self._pending.ids)
        dead = len(live) - int(np.count_nonzero(live))
        if dead and (self._core is not None or 2 * dead > len(live)):
            self._pending.keep(live)

    def _holds(self, ids: np.ndarray) -> np.ndarray:
        """Which ``ids`` a row holds, live or dead."""
        return (self._row_of.rows(ids) >= 0) | (self._pending.rows(ids) >= 0)

    # ------------------------------------------------------------------
    # Reading the rows back
    # ------------------------------------------------------------------
    def live_ids(self) -> list[int]:
        """Ids of the live items: core rows in row order, then pending
        rows in arrival order."""
        return self._live_held().tolist()

    def _live_held(self) -> np.ndarray:
        held = np.concatenate((self._ids, self._pending.ids))
        return held[self.live_mask.of(held)]

    def vectors_of(self, ids: Sequence[int]) -> np.ndarray:
        """The stored rows of live items, as a fresh ``(len(ids), d)``
        array, or :class:`IndexingError` if an id is not live.

        Core rows come from one ``backend.rows()`` call — through the
        buffer pool on a bounded backend — and pending rows from the
        pending buffer; asked for all of an unbuilt index's rows in held
        order, the answer is its block, read-only.
        """
        rows, pending = self._row_of.rows(ids), self._pending.rows(ids)
        dead = ~self.live_mask.of(ids)
        rows[dead] = pending[dead] = -1
        core = rows >= 0
        if core.all() and self._core is not None:
            return self._core.rows(rows)
        missing = ~core & (pending < 0)
        if missing.any():
            raise IndexingError(f"id {ids[int(np.argmax(missing))]} is not indexed")
        if not core.any():
            return self._pending.vectors_of(pending)
        assert self._core is not None
        out = np.empty((len(ids), self._core.dim))
        out[core] = self._core.rows(rows[core])
        out[~core] = self._pending.vectors_of(pending[~core])
        return out

    def rebuild(self) -> "MetricIndex":
        """Build a fresh structure over the live rows now.

        On an unbuilt index this is the first build, over the live
        pending rows in arrival order, taking the pending block as its
        working block when it holds exactly those rows (else one
        compacting copy); should the build fail, the live rows stay
        pending.  On a built index it rebuilds over the live items in
        ascending-id order (the order a fresh build would use), a no-op
        without pending or dead rows.  Resets :attr:`build_stats`.  An
        unbuilt index holding no live items raises :class:`IndexingError`.
        """
        if self._core is None:
            live = self.live_mask.of(self._pending.ids)
            if not live.any():
                raise IndexingError("nothing to build: the index holds no items")
            ids, rows = self._pending.hand_over(live)
            try:
                return self._build_owned(ids, rows)
            except BaseException:  # keep the rows; ``_build`` permutes both alike
                self._pending = _PendingRows()
                self._pending.append(ids, rows)
                raise
        if not self._pending and self.live_mask.of(self._ids).all():
            return self  # nothing to fold in
        ids = np.sort(self._live_held())
        if not len(ids):
            return self  # nothing left to build over
        rows = self.vectors_of(ids)  # the pending block itself comes read-only
        return self._build_owned(ids, rows if rows.flags.writeable else rows.copy())

    def _insert_batch(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Structure hook for appending rows; the default buffers them.
        Overrides that grow the structure in place must also extend the
        core arrays via :meth:`_append_core`."""
        self._pending.append(ids, vectors)

    def _reclaim_core(self) -> None:
        """Structure hook for dropping dead core rows; the default is a
        rebuild once pending and dead rows outgrow their threshold:
        ``live pending + dead core >= max(rebuild_min, rebuild_threshold
        * core_size)``, so a rebuild's cost is amortized over at least
        that many mutations and the per-query pending scan stays bounded.
        """
        live = np.count_nonzero(self.live_mask.of(self._ids))
        overlay = len(self._row_of) - live + np.count_nonzero(
            self.live_mask.of(self._pending.ids)
        )
        if overlay and overlay >= max(
            self.rebuild_min, self.rebuild_threshold * len(self._row_of)
        ):
            self.rebuild()

    def _append_core(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Extend the validated core arrays (for in-place growers):
        amortized O(rows appended), into the backend's spare capacity."""
        assert self._core is not None
        self._vectors = self._core.append(vectors)
        self._row_of.extend(ids)

    def _compact_core(self) -> np.ndarray | None:
        """Drop the dead core rows (the in-place growers' reclaim): one
        copy of the kept rows inside the growth buffer.  Returns the kept
        row indices, for parallel arrays, or ``None`` if all are live."""
        assert self._core is not None
        live = self.live_mask.of(self._ids)
        if live.all():
            return None
        keep = np.flatnonzero(live)
        self._vectors = self._core.take(keep)
        self._row_of = IdMap(self._ids[keep])
        return keep

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        """All live items with ``distance(item, query) <= radius``, nearest first."""
        query = self._check_query(query)
        if not radius >= 0.0:  # NaN fails this too
            raise IndexingError(f"radius must be non-negative; got {radius}")
        self._reset_stats()
        return self._range_one(query, float(radius))

    def knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """The ``k`` nearest live items (or all of them when ``k >= size``)."""
        query = self._check_query(query)
        k = check_count("k", k, 1)
        self._reset_stats()
        return self._knn_one(query, k)

    def range_search_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[Neighbor]]:
        """``[range_search(q, radius) for q in queries]``, bit for bit,
        per-query counters included (:meth:`_run_batch`)."""
        queries = self._check_query_batch(queries)
        if not radius >= 0.0:  # NaN fails this too
            raise IndexingError(f"radius must be non-negative; got {radius}")
        return self._run_batch(
            queries, lambda query: self._range_one(query, float(radius))
        )

    def knn_search_batch(self, queries: np.ndarray, k: int) -> list[list[Neighbor]]:
        """``knn_search`` for every row of ``queries``; one list per row,
        equivalent as for :meth:`range_search_batch`."""
        queries = self._check_query_batch(queries)
        k = check_count("k", k, 1)
        return self._run_batch(queries, lambda query: self._knn_one(query, k))

    def _range_one(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        """One range query, counted in the current stats: the structure's
        answer merged with the overlay, in ``(distance, id)`` order."""
        result = self._overlay_range(query, radius, self._range_search(query, radius))
        result.sort(key=lambda nb: (nb.distance, nb.id))
        return result

    def _knn_one(self, query: np.ndarray, k: int, search=None) -> list[Neighbor]:
        """One k-NN query, counted in the current stats (see :meth:`_range_one`),
        through the structure's ``search`` (default :meth:`_knn_search`)."""
        result = self._overlay_knn(query, (search or self._knn_search)(query, k), k)
        result.sort(key=lambda nb: (nb.distance, nb.id))
        return result[:k]

    # ------------------------------------------------------------------
    # Mutation overlay applied to query results
    # ------------------------------------------------------------------
    def _live_pending(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The live pending rows a query scans, ``(ids, rows)``, or
        ``None`` (a failed add leaves dead ones until the next reclaim)."""
        if not self._pending:
            return None
        ids, block = self._pending.ids, self._pending.block
        live = self.live_mask.bits[ids]
        if live.all():
            return ids, block
        return (ids[live], block[live]) if live.any() else None

    def _overlay_range(
        self, query: np.ndarray, radius: float, result: list[Neighbor]
    ) -> list[Neighbor]:
        """Drop dead hits; scan the live pending rows into ``result``
        (through :meth:`_dist_batch`: measured cost, not hidden cost)."""
        if result:
            found = np.fromiter((nb.id for nb in result), np.int64, len(result))
            live = self.live_mask.bits[found]
            if not live.all():
                result = [nb for nb, keep in zip(result, live.tolist()) if keep]
        pending = self._live_pending()
        if pending is not None:
            ids, block = pending
            distances = self._dist_batch(query, block)
            rows = np.flatnonzero(distances <= radius)
            result.extend(neighbors_at(ids, rows, distances))
        return result

    def _overlay_knn(
        self, query: np.ndarray, result: list[Neighbor], k: int
    ) -> list[Neighbor]:
        """Merge the live pending rows that can still be among the ``k``
        nearest into the structure's (live) answer: all are scanned and
        counted, but only those not beyond the k-th smallest pending
        distance — every tie there included, so sorting by ``(distance,
        id)`` and truncating gives a fresh build's tie-break — are kept."""
        pending = self._live_pending()
        if pending is not None:
            ids, block = pending
            distances = self._dist_batch(query, block)
            kth = np.partition(distances, k - 1)[k - 1] if k < len(distances) else np.inf
            rows = np.flatnonzero(~(distances > kth))  # keeps ties (and nan)
            result.extend(neighbors_at(ids, rows, distances))
        return result

    def _reset_stats(self, n_queries: int = 1) -> None:
        """Fresh counters for a call that answers ``n_queries`` queries;
        every search adds to them, so after a batch they hold its sum."""
        self._search_stats = SearchStats()

    def _run_batch(self, queries, run_one) -> list[list[Neighbor]]:
        """One search per query row: scalar and batched entry points are
        one code path, so their results and counters agree by construction."""
        self._reset_stats(len(queries))
        return [run_one(query) for query in queries]

    def _check_query_batch(self, queries: np.ndarray) -> np.ndarray:
        if self._core is None:
            raise IndexingError("index has not been built yet")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise IndexingError(
                f"queries must be a 2-D (m, d) array; got shape {queries.shape} "
                f"(wrap a single query in a one-row matrix, or use the scalar API)"
            )
        if queries.shape[1] != self._core.dim:
            raise IndexingError(
                f"query has dim {queries.shape[1]}, index expects {self._core.dim}"
            )
        if not np.all(np.isfinite(queries)):
            raise IndexingError("query contains non-finite values")
        return queries

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        """One query vector, validated as a one-row batch."""
        return self._check_query_batch(np.reshape(query, (1, -1)))[0]

    def _dist_batch(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Batched metric evaluation, one counted computation per row, on
        the metric's unchecked ``_kernel`` (operands were validated on
        their way in; a wrapping ``CountingMetric`` counts there too)."""
        distances = self._metric._kernel(query, vectors)
        self._search_stats.distance_computations += distances.shape[0]
        return distances

    def _record(self, computed: int, visited: int, pruned: int, leaves: int) -> None:
        """Add one traversal's locally kept counters to the current stats
        (the flat tree loops' single write-back per query)."""
        stats = self._search_stats
        stats.distance_computations += computed
        stats.nodes_visited += visited
        stats.nodes_pruned += pruned
        stats.leaves_visited += leaves

    def _build_dist_batch(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Batched metric evaluation, counted in the build stats.

        A sweep over more rows than :data:`_BUILD_TEMP_BYTES` holds runs
        the kernel piecewise — the kernels are row-independent, so the
        distances are the bits of one call, without its input-sized
        temporaries.
        """
        n = vectors.shape[0]
        self._build_stats.distance_computations += n
        kernel = self._metric._kernel
        step = max(1, _BUILD_TEMP_BYTES // max(vectors[:1].nbytes, 1))
        if n <= step:
            return kernel(query, vectors)
        return np.concatenate(
            [kernel(query, vectors[start : start + step]) for start in range(0, n, step)]
        )

    # ------------------------------------------------------------------
    # The round engine: the static trees' range and k-NN traversals
    # ------------------------------------------------------------------
    #: Round hook, a table the tree's build fills: one ``(start, width,
    #: inner)`` int64 row per node (node numbers; the root is 0) —
    #: evaluating a node costs the block rows ``[start, start + width)``
    #: (a pivot, a node's split points, a leaf's bucket, or none), and
    #: ``inner`` is 1 for a node with children, read from the tree's
    #: child column.  Every inner node of a tree has the same width.  A
    #: table, not a method, so the descent reads a node in one lookup.
    _node_rows: np.ndarray

    def _child_bounds(
        self, query: np.ndarray, parents: np.ndarray, d: np.ndarray, column: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Round hook: ``(kids, bounds, keys)``, three ``(len(parents),
        c)`` arrays — each inner node's child numbers (``-1`` for an
        absent child), a lower bound on the distance from ``query`` to
        anything stored under each child, less the rounding allowance (so
        it may be negative), and the key the descent orders siblings by,
        nearest first: the bound before its allowance (or the bound
        itself).  ``d`` holds the parents' distances to their rows: all
        of them (``column`` is ``None``) or, in a range query's stage
        ``column``, that row's only."""
        raise NotImplementedError

    def _evaluate(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The query's distance to each of the block's ``rows``: one
        kernel call, unless the gathered rows would pass
        :data:`_BUILD_TEMP_BYTES` (a range ball holding most of the
        collection), then a call per piece; no call for no rows."""
        kernel, block = self._metric._kernel, self._vectors
        step = max(1, _BUILD_TEMP_BYTES // (8 * block.shape[1]))
        if not rows.size:
            return np.empty(0)
        if rows.size <= step:
            return kernel(query, block[rows])
        return np.concatenate(
            [kernel(query, block[rows[at : at + step]]) for at in range(0, rows.size, step)]
        )

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        """Unsorted range result; base class sorts.

        The round engine's range body is level-synchronous: the radius is
        fixed, so every node of the frontier is evaluated each level —
        every leaf's bucket in one call with the first split row of every
        inner node — and its children are tested at once.  An inner node
        of width *w* takes *w* stages: stage *s* evaluates row *s* of
        every node whose child *s* is still in range (Brin's order for
        the GNAT's split points, which a pruned child's split point
        skips), and each stage's distances raise the children's bounds.
        Prune decisions, answers and counters are those of a depth-first
        walk; a query costs at most width × (depth + 1) calls.
        """
        ids = self._ids
        result: list[Neighbor] = []
        computed = visited = pruned = leaves = 0

        frontier = np.zeros(1, dtype=np.int64)  # the root
        while frontier.size:
            start, width, inner = self._node_rows.take(frontier, 0).T
            inner = inner > 0
            parents, first = frontier[inner], start[inner]
            visited += parents.size
            leaves += frontier.size - parents.size
            stages = int(width[inner].max(initial=0))  # an inner node's rows
            rows, _ = _row_ranges(start[~inner], width[~inner])
            if stages:
                rows = np.concatenate((first, rows))
            chosen = np.arange(parents.size)
            for stage in range(max(stages, 1)):
                if stage:
                    chosen = np.flatnonzero(bounds[:, stage] <= radius)
                    rows = first[chosen] + stage
                distances = self._evaluate(query, rows)
                computed += rows.size
                hits = (distances <= radius).nonzero()[0]
                if hits.size:
                    result += map(Neighbor, ids[rows[hits]].tolist(), distances[hits].tolist())
                if not chosen.size:
                    continue
                d = distances[: chosen.size, None] if stages else np.empty((chosen.size, 0))
                kids, raised, _ = self._child_bounds(query, parents[chosen], d, stage)
                if stage:
                    bounds[chosen] = np.maximum(bounds[chosen], raised)
                else:
                    every_kid, bounds = kids, raised
            if not parents.size:
                break
            # The radius never changes, so nothing a later level learns
            # could move a decision taken here.
            exists = every_kid >= 0
            frontier = every_kid[exists & (bounds <= radius)]
            pruned += int(np.count_nonzero(exists)) - frontier.size

        self._record(computed, visited, pruned, leaves)
        return result

    def _knn_search(
        self, query: np.ndarray, k: int, epsilon: float = 0.0, budget: int | None = None
    ) -> list[Neighbor]:
        """Unsorted k-NN result; base class sorts.

        The round engine's k-NN body first *descends*, one node per call
        on a row slice, nearer child first by the hook's ``keys`` (the
        first child on ties), until a leaf leaves ``k`` live candidates
        held — the depth-first walk's first path, so ``tau`` starts as
        tight as the walk's.  Then each round drops the frontier entries
        whose bound exceeds ``reach = tau / (1 + epsilon)`` (a child's
        bound is the larger of its parent's and its own), evaluates the
        nearest :data:`_BATCH_FRACTION` of the rest by bound in one call,
        offers the rows within ``tau``, and leaves the farthest entries
        for the next round's test against the tightened ``tau``.  A node
        without rows (a k-d tree's) is an ordinary entry whose round makes
        no call for it.  Under a ``budget`` (the VP-tree's approximate
        mode, whose inner nodes are one row) a round's rows are cut to the
        remaining budget in bound order, a leaf keeping its affordable
        prefix.
        """
        block, ids = self._vectors, self._ids
        kernel = self._metric._kernel
        shrink = 1.0 / (1.0 + epsilon)
        limit = sys.maxsize if budget is None else budget
        # The k best candidates so far (see offer_candidates); tau is the
        # k-th best distance and an item farther than tau cannot enter
        # the heap, so it is not offered.  reach is tau * shrink.
        heap: list[tuple[float, int]] = []
        live = self.live_mask.bits  # only live items are offered
        tau = reach = np.inf
        computed = visited = pruned = leaves = 0

        # The descent.  The stack holds (node, lower bound on the
        # distance to anything below it); what is left on it when the
        # descent ends is the rounds' frontier.
        stack: list[tuple[int, float]] = [(0, 0.0)]
        table = self._node_rows
        split = 0  # an inner node's width, once the descent meets one
        while stack:
            node, bound = stack.pop()
            if bound > reach:
                pruned += 1
                continue
            if computed >= limit:
                stack.clear()
                break
            start, width, inner = table[node].tolist()
            # Only the affordable prefix of a bucket is evaluated.
            stop = start + min(width, limit - computed)
            computed += stop - start
            distances = kernel(query, block[start:stop]) if stop > start else _NO_ROWS
            listed = distances.tolist()
            if listed and min(listed) <= tau:
                tau = offer_candidates(heap, k, ids[start:stop].tolist(), listed, live)
                reach = tau * shrink
            if not inner:
                leaves += 1
                if len(heap) == k:
                    break
                continue
            visited += 1
            split = width
            kids, kid_bounds, keys = self._child_bounds(
                query, np.array((node,)), distances[None, :], None
            )
            kids, kid_bounds, keys = kids[0].tolist(), kid_bounds[0].tolist(), keys[0].tolist()
            # The nearest child on top of the stack, the first on ties.
            for j in reversed(sorted(range(len(kids)), key=keys.__getitem__)):
                if kids[j] >= 0:
                    stack.append((kids[j], max(bound, kid_bounds[j])))
        split = np.arange(split)  # every inner node's row offsets

        # The rounds: one call each over the frontier's nearest entries.
        nodes = np.array([node for node, _ in stack], dtype=np.int64)
        bounds = np.array([bound for _, bound in stack])
        while nodes.size:
            # Nearest bound first; the entries past reach are pruned.
            order = bounds.argsort(kind="stable")
            nodes, bounds = nodes.take(order), bounds.take(order)
            n_near = int(bounds.searchsorted(reach, "right"))
            pruned += nodes.size - n_near
            if not n_near or computed >= limit:
                break
            cut = max(1, int(_BATCH_FRACTION * n_near))
            take, take_bounds = nodes[:cut], bounds[:cut]
            nodes, bounds = nodes[cut:n_near], bounds[cut:n_near]

            start, width, inner = self._node_rows.take(take, 0).T
            inner = inner > 0
            rows, first = _row_ranges(start, width)
            if rows.size > limit - computed:
                # Only the affordable prefix, in bound order; a node is
                # evaluated if its first row is.
                rows = rows[: limit - computed]
                kept = int(np.searchsorted(first, rows.size))
                take, take_bounds = take[:kept], take_bounds[:kept]
                first, width, inner = first[:kept], width[:kept], inner[:kept]
            distances = self._evaluate(query, rows)
            computed += rows.size
            offered = (distances <= tau).nonzero()[0]
            if offered.size:
                tau = offer_candidates(
                    heap, k, ids[rows[offered]].tolist(), distances[offered].tolist(), live
                )
                reach = tau * shrink

            parents = take[inner]
            visited += parents.size
            leaves += take.size - parents.size
            if not parents.size:
                continue
            d = distances[first[inner][:, None] + split]
            kids, kid_bounds, _ = self._child_bounds(query, parents, d, None)
            np.maximum(kid_bounds, take_bounds[inner][:, None], out=kid_bounds)
            # Child-major, so the frontier lists every first child, then
            # every second ...; absent children are dropped.
            kids, kid_bounds = kids.ravel("F"), kid_bounds.ravel("F")
            exists = kids >= 0
            nodes = np.concatenate((nodes, kids[exists]))
            bounds = np.concatenate((bounds, kid_bounds[exists]))

        self._record(computed, visited, pruned, leaves)
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap]

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Construct internal structure over validated int64 ``ids`` and
        their ``(n, d)`` ``vectors``.

        Both arrays are the index's own and writable: a structure that
        wants its rows stored in its own order permutes the two together,
        in place.  Afterwards the storage backend takes ``vectors`` —
        a bounded backend writes the block out and drops it — so keep
        row *numbers*, and read rows through ``self._vectors`` at query
        time; ``self._ids`` / ``self._row_of`` are set from ``ids``.
        """

    def __repr__(self) -> str:
        state = f"size={self.size}" if self.is_built else "unbuilt"
        return f"{type(self).__name__}({state}, metric={self._metric.name})"
