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
return one result list per query.  The contract is strict equivalence:
result ``i`` of a batch is identical (ids, distances, and per-query cost
counters, bit for bit) to running query ``i`` alone; batching saves
interpreter overhead via the metrics' vectorized kernels, never metric
evaluations.  After a batch, :attr:`MetricIndex.last_batch_stats` holds
the per-query counters and :attr:`MetricIndex.last_stats` their sum.

Mutation protocol (see ``docs/mutability.md``)
----------------------------------------------
Every index accepts :meth:`MetricIndex.insert_batch` and
:meth:`MetricIndex.delete`, built or not.  Before the first build both
go to the **pending buffer** — inserted items held outside the
structure, one growable block in arrival order — and
:meth:`MetricIndex.rebuild` is the first build, over that block.  Once
built, structures with a genuinely dynamic shape override the
``_insert_batch`` / ``_delete`` hooks (the M-tree grows by paper-style
page splits, the linear scan and LAESA's pivot table extend their
arrays row-wise); the static trees keep using the pending buffer
(scanned per query) plus **tombstones** (deleted ids filtered out of
structural results), with a threshold-triggered rebuild
(:attr:`rebuild_threshold` / :attr:`rebuild_min`) that folds the
overlay back into a fresh structure once it grows past a fraction of
the core.  Every query entry point — scalar, batched, and the
approximate variants — merges the overlay with the structural answer,
so results over the *live* item set are exact and the per-query
distance accounting stays measured (pending items cost one counted
batched evaluation per query, tombstone filtering is free).

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
from repro.db.idmap import IdMap
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
    heap: list[tuple[float, int]], k: int, item_ids, distances
) -> float:
    """Offer ``(id, distance)`` pairs to a k-NN loop's ``k``-best heap.

    The heap is a max-heap of ``(-distance, -id)``: among equal
    distances the larger id is evicted first, matching the documented
    tie-break.  Returns tau, the k-th best distance — infinite until
    ``k`` candidates are held.  An item farther than tau cannot enter,
    so the flat tree loops only call this for distances ``<= tau``.
    """
    for item_id, d in zip(item_ids, distances):
        entry = (-d, -item_id)
        if len(heap) < k:
            heappush(heap, entry)
        elif entry > heap[0]:
            heapreplace(heap, entry)
    return -heap[0][0] if len(heap) == k else np.inf


def neighbors_at(
    ids: np.ndarray, rows: np.ndarray, distances: np.ndarray
) -> list[Neighbor]:
    """A :class:`Neighbor` for each selected row only — the scans and
    the pending overlay select with array operations first."""
    return [Neighbor(i, d) for i, d in zip(ids[rows].tolist(), distances[rows].tolist())]


#: Largest temporary a build step allocates over a node's rows: the
#: partition gather (:func:`reorder_rows`) and the distance sweeps
#: (:meth:`MetricIndex._build_dist_batch`) work through bigger nodes in
#: pieces, so a build's peak is its working block, not a multiple of it.
_BUILD_TEMP_BYTES = 1 << 23


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


def check_count(name: str, value: int, minimum: int) -> int:
    """``value`` as an ``int``, or :class:`IndexingError` unless it is an
    integer ``>= minimum`` — a tree's bucket size or fan-out.  NaN passes
    every ``<`` bound check and ``2.5`` is no bucket size, so both are
    refused here, at construction, rather than surfacing mid-build."""
    if not isinstance(value, Integral) or value < minimum:
        raise IndexingError(f"{name} must be an integer >= {minimum}; got {value!r}")
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

    def discard(self, ids: np.ndarray) -> np.ndarray:
        """Drop the held ones among ``ids`` (one compacting copy of the
        survivors) and return which were held."""
        rows = self.rows(ids)
        held = rows >= 0
        if held.any():
            assert self._rows is not None
            keep = np.delete(np.arange(len(self)), rows[held])
            self._rows.take(keep)
            IdMap.__init__(self, self.ids[keep])
        return held

    def vectors_of(self, rows: np.ndarray) -> np.ndarray:
        """Held rows by row number; asked for every row in order (a
        ``save`` before the first build), the block itself, read-only."""
        assert self._rows is not None
        if len(rows) == len(self) and np.array_equal(rows, np.arange(len(self))):
            return self.block
        return self._rows.rows(rows)

    def hand_over(self, dead: set[int]) -> tuple[np.ndarray, np.ndarray]:
        """The ids and rows, less those of ``dead`` ids, as arrays the
        caller now owns: the block itself when its allocation holds
        exactly those rows, else one compacting copy.  The buffer must
        not be used afterwards."""
        assert self._rows is not None
        block, n = self._rows.base, len(self)
        if dead:
            keep = np.delete(np.arange(n), self.rows(np.fromiter(dead, np.int64)))
            return self.ids[keep], block[keep]
        return self.ids.copy(), block if block.shape[0] == n else block[:n].copy()


class MetricIndex(ABC):
    """Base class: validation, bookkeeping, and the query protocol.

    Subclasses implement ``_build``, ``_range_search`` and ``_knn_search``;
    this class owns operand validation, result ordering, and the stats
    lifecycle.  Every row a query hands to the metric's ``_kernel`` must
    be counted in :attr:`last_stats`: :meth:`_dist_batch` counts as it
    evaluates, and the flat tree loops, which call the kernel directly,
    count in locals and write them back once through :meth:`_record`.
    """

    #: Set False in subclasses that tolerate non-metric distances.
    requires_metric: bool = True

    #: Overlay (pending inserts + tombstones) fraction of the core that
    #: triggers a structural rebuild; see :meth:`_maybe_rebuild`.
    rebuild_threshold: float = 0.25
    #: Overlay size below which a rebuild never triggers (lets small
    #: indexes absorb a few mutations without thrashing).
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
        #: Core row of every id physically inside the structure
        #: (tombstoned ones included) — the map every by-id read and
        #: every mutation check goes through.  Its id column is
        #: :attr:`_ids`.
        self._row_of = IdMap()
        self._vectors: np.ndarray | None = None
        self._core: VectorBackend | None = None
        self._build_stats = BuildStats()
        self._search_stats = SearchStats()
        self._batch_stats: list[SearchStats] = []
        # Mutation overlay: items the concrete structure does not hold
        # (all of them before the first build; scanned per query after
        # it), and ids deleted but still physically held — inside the
        # structure, or in the pending buffer before the first build.
        self._pending = _PendingRows()
        self._tombstones: set[int] = set()

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
        """Number of *live* indexed items (pending inserts included,
        tombstoned deletions excluded)."""
        return len(self._row_of) + len(self._pending) - len(self._tombstones)

    @property
    def n_pending(self) -> int:
        """Inserted items the structure holds in its pending buffer."""
        return len(self._pending)

    @property
    def n_tombstones(self) -> int:
        """Deleted ids still physically inside the structure."""
        return len(self._tombstones)

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

    @property
    def last_batch_stats(self) -> list[SearchStats]:
        """Per-query cost counters of the most recent batched query.

        Empty when the most recent query was a scalar call.
        """
        return list(self._batch_stats)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, ids: Sequence[int], vectors: np.ndarray) -> "MetricIndex":
        """Build the index over ``(ids[i], vectors[i])`` pairs.

        Parameters
        ----------
        ids:
            Integer identifiers, one per vector; duplicates are rejected.
        vectors:
            ``(n, d)`` float array, ``n >= 1``.

        Returns
        -------
        MetricIndex
            ``self``, for chaining.
        """
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
        return self._build_owned(ids, np.array(vectors, dtype=np.float64, order="C"))

    def _build_owned(self, ids: np.ndarray, rows: np.ndarray) -> "MetricIndex":
        """Build over validated int64 ``ids`` and a C-contiguous float64
        block the index owns, which the backend then takes (no copy).
        The overlay is cleared only once the new core is in place."""
        self._build_stats = BuildStats()
        self._build(ids, rows)
        previous = self._core
        self._core = self.backend_factory.adopt(rows)
        self._pending = _PendingRows()
        self._tombstones = set()
        if previous is not None:
            previous.close()
        self._vectors = self._core.view()
        self._row_of = IdMap(ids)
        return self

    def close(self) -> None:
        """Release the index's storage backend (idempotent).

        Backend files are derived state, so a bounded backend may
        delete them; the index must not be queried afterwards.
        """
        if self._core is not None:
            self._core.close()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_batch(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Insert new ``(ids[i], vectors[i])`` items.

        An unbuilt index holds them in its pending buffer for the first
        :meth:`rebuild`.  Once built, the M-tree, the linear scan and
        LAESA grow in place; the static trees buffer the items in the
        pending overlay, scanned per query until a threshold rebuild
        folds them in (``docs/mutability.md``).  Either way the next
        query sees them, with exact results and distance accounting.

        Raises
        ------
        IndexingError
            If an id is already present (live or tombstoned), ids
            repeat, or vectors have the wrong shape or non-finite
            values.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        dim = self._core.dim if self._core is not None else self._pending.dim
        if vectors.ndim != 2 or (dim is not None and vectors.shape[1] != dim):
            raise IndexingError(
                f"vectors must be a 2-D array of dim {dim}; got shape {vectors.shape}"
            )
        ids = self.check_new_ids(ids)
        if len(ids) != vectors.shape[0]:
            raise IndexingError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
        if not len(ids):
            return
        if not np.all(np.isfinite(vectors)):
            raise IndexingError("vectors contain non-finite values")
        self._metric._check_dim(vectors.shape[1])
        if self._core is None:
            self._pending.append(ids, vectors)
        else:
            self._insert_batch(ids, vectors)
            self._maybe_rebuild()

    def check_new_ids(self, ids: Sequence[int]) -> np.ndarray:
        """The id checks of :meth:`insert_batch`, without inserting:
        ``ids`` as int64, or :class:`IndexingError` if one repeats or is
        already present (live or tombstoned).

        A database asks every index before its catalog takes explicit
        ids, so a refused add leaves nothing half applied.  Before the first build
        a deleted id may come back: its dead pending row is squeezed
        out here.
        """
        ids = _as_ids(ids)
        if _repeats(ids):
            raise IndexingError("duplicate ids in insert input")
        if self._core is None and self._tombstones:
            if not self._tombstones.isdisjoint(ids.tolist()):
                self._drop_dead_pending()
        clashes = (self._row_of.rows(ids) >= 0) | (self._pending.rows(ids) >= 0)
        if clashes.any():
            raise IndexingError(
                f"id {ids[clashes].min()} is already indexed "
                f"(tombstoned ids cannot be re-inserted before a rebuild)"
            )
        return ids

    def delete(self, ids: Sequence[int]) -> None:
        """Delete items by id.

        An unbuilt index tombstones them in its pending buffer and
        squeezes the dead rows out once they outnumber the live ones
        (or at the first build), so a delete is amortised O(1).  Once
        built, the linear scan and LAESA drop the rows outright; tree
        structures tombstone the ids (filtered from every result at no
        distance cost) until a threshold rebuild reclaims the space.

        Raises
        ------
        IndexingError
            If an id is unknown or already deleted, or ids repeat.
        """
        ids = _as_ids(ids)
        if not len(ids):
            return
        if _repeats(ids):
            raise IndexingError("duplicate ids in delete input")
        live = (self._row_of.rows(ids) >= 0) | (self._pending.rows(ids) >= 0)
        if self._tombstones:
            live &= [item_id not in self._tombstones for item_id in ids.tolist()]
        if not live.all():
            raise IndexingError(f"id {ids[~live].min()} is not indexed")
        if self._core is None:
            self._tombstones.update(ids.tolist())
            if 2 * len(self._tombstones) > len(self._pending):
                self._drop_dead_pending()
        else:
            self._delete(ids)
            self._maybe_rebuild()

    # ------------------------------------------------------------------
    # Reading the rows back
    # ------------------------------------------------------------------
    def live_ids(self) -> list[int]:
        """Ids of the live items: core rows in row order (tombstoned
        ones skipped), then pending inserts in arrival order."""
        dead = self._tombstones
        held = [*self._ids.tolist(), *self._pending.ids.tolist()]
        return [i for i in held if i not in dead] if dead else held

    def vectors_of(self, ids: Sequence[int]) -> np.ndarray:
        """The stored rows of live items, as a fresh ``(len(ids), d)`` array.

        Core rows are gathered with one ``backend.rows()`` call — through
        the buffer pool, counted and capped, on a bounded backend — and
        pending rows from the pending buffer; asked for all of an unbuilt
        index's rows in held order, the answer is its block, read-only.

        Raises
        ------
        IndexingError
            If an id is not live.
        """
        rows, pending = self._row_of.rows(ids), self._pending.rows(ids)
        if self._tombstones:  # physically held, but not live
            dead = [item_id in self._tombstones for item_id in ids]
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
        """Fold the mutation overlay into a fresh structure now.

        On an unbuilt index this is the first build, over the live
        pending items in arrival order, taking the pending block as its
        working block when it holds exactly those rows (else one
        compacting copy, deleted rows left out); should the build fail,
        the rows stay pending.  On a built index it rebuilds over the
        live items in ascending-id order (the order a fresh build would
        use), a no-op when the overlay is empty.  Resets
        :attr:`build_stats`.  An unbuilt index holding no items raises
        :class:`IndexingError`.
        """
        if self._core is None:
            if not self.size:
                raise IndexingError("nothing to build: the index holds no items")
            ids, rows = self._pending.hand_over(self._tombstones)
            try:
                return self._build_owned(ids, rows)
            except BaseException:  # keep the rows; ``_build`` permutes both alike
                self._pending, self._tombstones = _PendingRows(), set()
                self._pending.append(ids, rows)
                raise
        if not self._pending and not self._tombstones:
            return self
        ids = np.sort(np.array(self.live_ids(), dtype=np.int64))
        if not len(ids):
            # Nothing left to build over; keep the overlay (queries
            # filter everything out) rather than produce an empty tree.
            return self
        rows = self.vectors_of(ids)  # the pending block itself comes read-only
        return self._build_owned(ids, rows if rows.flags.writeable else rows.copy())

    def _insert_batch(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Structure hook for insertion; the default buffers the items.

        Overrides that grow the structure in place must also extend the
        core arrays via :meth:`_append_core`.
        """
        self._pending.append(ids, vectors)

    def _delete(self, ids: np.ndarray) -> None:
        """Structure hook for deletion; the default tombstones core ids
        (pending ones are simply dropped from the buffer)."""
        held = self._pending.discard(ids)
        self._tombstones.update(ids[~held].tolist())

    def _drop_dead_pending(self) -> None:
        """Before the first build: squeeze the tombstoned rows out of
        the pending buffer (one compacting copy of the survivors)."""
        dead = self._tombstones
        self._pending.discard(np.fromiter(dead, np.int64, len(dead)))
        self._tombstones = set()

    def _maybe_rebuild(self) -> None:
        """Rebuild once the overlay outgrows its threshold.

        The trigger is ``pending + tombstones >= max(rebuild_min,
        rebuild_threshold * core_size)`` — rebuild cost is amortized
        over at least that many mutations, and per-query overlay cost
        (one batched scan of the pending buffer) stays bounded.
        """
        overlay = len(self._pending) + len(self._tombstones)
        if overlay and overlay >= max(
            self.rebuild_min, self.rebuild_threshold * len(self._row_of)
        ):
            self.rebuild()

    def _append_core(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Extend the validated core arrays (for in-place growers).

        Amortized O(rows appended): the rows land in the spare tail of
        the backend's capacity-doubled buffer; ``_vectors`` is re-pointed
        at the live rows.
        """
        assert self._core is not None
        self._vectors = self._core.append(vectors)
        self._row_of.extend(ids)

    def _remove_core(self, ids: np.ndarray) -> np.ndarray:
        """Drop rows by id from the core arrays.

        Returns the kept row indices (relative to the old layout) so
        subclasses can slice their own parallel arrays the same way.
        Compacts survivors inside the growth buffer (one copy of the
        kept rows, capacity retained for future appends).
        """
        assert self._core is not None
        keep = np.delete(np.arange(len(self._row_of)), self._row_of.rows(ids))
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
        self._search_stats = SearchStats()
        self._batch_stats = []
        return self._range_one(query, float(radius))

    def knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """The ``k`` nearest live items (or all of them when ``k >= size``)."""
        query = self._check_query(query)
        if k < 1:
            raise IndexingError(f"k must be >= 1; got {k}")
        self._search_stats = SearchStats()
        self._batch_stats = []
        return self._knn_one(query, int(k))

    def range_search_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[Neighbor]]:
        """``range_search`` for every row of ``queries``; one list per row.

        Equivalent to ``[range_search(q, radius) for q in queries]`` —
        identical results and per-query counters: each query runs the
        scalar body through :meth:`_run_batch`.
        """
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
        if k < 1:
            raise IndexingError(f"k must be >= 1; got {k}")
        return self._run_batch(queries, lambda query: self._knn_one(query, int(k)))

    def _range_one(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        """One range query, counted in the current stats: the structure's
        answer merged with the overlay, in ``(distance, id)`` order."""
        result = self._overlay_range(query, radius, self._range_search(query, radius))
        result.sort(key=lambda nb: (nb.distance, nb.id))
        return result

    def _knn_one(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """One k-NN query, counted in the current stats (see :meth:`_range_one`)."""
        result = self._knn_search(query, self._structural_k(k))
        result = self._overlay_knn(query, result, k)
        result.sort(key=lambda nb: (nb.distance, nb.id))
        return result[:k]

    # ------------------------------------------------------------------
    # Mutation overlay applied to query results
    # ------------------------------------------------------------------
    def _structural_k(self, k: int) -> int:
        """k to request from the structure so ``k`` *live* answers survive.

        Tombstoned items still occupy the structure; asking for
        ``k + n_tombstones`` guarantees the structural result retains
        the true top-``k`` live items after filtering (at most
        ``n_tombstones`` of the returned entries can be dead).
        """
        return k + len(self._tombstones)

    def _overlay_range(
        self, query: np.ndarray, radius: float, result: list[Neighbor]
    ) -> list[Neighbor]:
        """Drop tombstoned hits; scan the pending buffer into ``result``.

        The pending scan goes through :meth:`_dist_batch`, so its
        ``len(pending)`` evaluations are counted in the current query's
        stats — the overlay is measured cost, not hidden cost.
        """
        if self._tombstones:
            result = [nb for nb in result if nb.id not in self._tombstones]
        if self._pending:
            distances = self._dist_batch(query, self._pending.block)
            rows = np.flatnonzero(distances <= radius)
            result.extend(neighbors_at(self._pending.ids, rows, distances))
        return result

    def _overlay_knn(
        self, query: np.ndarray, result: list[Neighbor], k: int
    ) -> list[Neighbor]:
        """Drop tombstoned hits; merge the pending rows that can still
        be among the ``k`` nearest.

        Every pending row is scanned (and counted), but only those not
        beyond the k-th smallest pending distance become result objects
        — every tie at that place included, so callers sorting the
        merged candidates by ``(distance, id)`` and truncating to ``k``
        get the same tie-break a fresh build over the live set produces.
        """
        if self._tombstones:
            result = [nb for nb in result if nb.id not in self._tombstones]
        if self._pending:
            distances = self._dist_batch(query, self._pending.block)
            kth = np.partition(distances, k - 1)[k - 1] if k < len(distances) else np.inf
            rows = np.flatnonzero(~(distances > kth))  # keeps ties (and nan)
            result.extend(neighbors_at(self._pending.ids, rows, distances))
        return result

    def _run_batch(self, queries, run_one) -> list[list[Neighbor]]:
        """Run one search per query row, each on fresh stats; publish
        them as :attr:`last_batch_stats` and their sum as :attr:`last_stats`.

        Subclasses get their batch speedups by vectorizing the per-query
        hooks themselves (``_range_search`` / ``_knn_search`` built on
        :meth:`_dist_batch`), which keeps the scalar and batched entry
        points one code path and the per-query counters identical by
        construction.
        """
        results, per_query, total = [], [], SearchStats()
        for query in queries:
            self._search_stats = SearchStats()
            results.append(run_one(query))
            per_query.append(self._search_stats)
            total.merge(self._search_stats)
        self._batch_stats, self._search_stats = per_query, total
        return results

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
        """Batched metric evaluation: one counted computation per row.

        Calls the metric's unchecked ``_kernel`` (query and rows were
        validated on their way into the index), which is also where an
        externally wrapped :class:`~repro.metrics.base.CountingMetric`
        counts — batching is never a way around the accounting.
        """
        distances = self._metric._kernel(query, vectors)
        self._search_stats.distance_computations += distances.shape[0]
        return distances

    def _record(self, computed: int, visited: int, pruned: int, leaves: int) -> None:
        """Add one traversal's locally kept counters to the current stats.

        The flat tree loops call the metric's ``_kernel`` directly and
        count in locals; this is their single write-back per query.
        """
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

    @abstractmethod
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        """Unsorted range result; base class sorts."""

    @abstractmethod
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """Unsorted k-NN result; base class sorts."""

    def __repr__(self) -> str:
        state = f"size={self.size}" if self.is_built else "unbuilt"
        return f"{type(self).__name__}({state}, metric={self._metric.name})"
