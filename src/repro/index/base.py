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
A built index accepts :meth:`MetricIndex.insert_batch` and
:meth:`MetricIndex.delete`.  Structures with a genuinely dynamic shape
override the ``_insert_batch`` / ``_delete`` hooks (the M-tree grows by
paper-style page splits, the linear scan and LAESA's pivot table extend
their arrays row-wise); the static trees fall back to the base class's
**pending buffer** (inserted items held outside the structure and
scanned per query) plus **tombstones** (deleted ids filtered out of
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
The index's :class:`~repro.db.backend.VectorBackend` is the only place
a built feature's rows live, and the order they are stored in is the
index's choice: :meth:`MetricIndex.build` copies the input once into a
working block, ``_build`` may permute that block (and the ids beside
it) in place — the static trees arrange it in tree order — and the
backend then *takes* the block.  ``_vectors`` is the backend's view of
it, ``_ids`` the id of every row, ``_row_of`` the id → row map.
:meth:`MetricIndex.live_ids` and :meth:`MetricIndex.vectors_of` are how
everything else — the database's ``vector_of`` / ``feature_matrix`` /
``save`` and the index's own :meth:`MetricIndex.rebuild` — reads the
rows back.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from heapq import heappush, heapreplace
from typing import NamedTuple, Sequence

import numpy as np

from repro.db.backend import BackendFactory, MemoryBackendFactory, VectorBackend
from repro.db.idmap import IdMap
from repro.errors import IndexingError
from repro.index.stats import BuildStats, SearchStats
from repro.metrics.base import Metric

__all__ = ["Neighbor", "MetricIndex", "neighbors_at", "offer_candidates", "reorder_rows"]


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


#: The default storage for index cores; ``ImageDatabase`` overrides
#: :attr:`MetricIndex.backend_factory` per index when configured with a
#: different backend (``docs/storage.md``).
_DEFAULT_BACKEND_FACTORY = MemoryBackendFactory()


class MetricIndex(ABC):
    """Base class: validation, bookkeeping, and the query protocol.

    Subclasses implement ``_build``, ``_range_search`` and ``_knn_search``;
    this class owns operand validation, result ordering, and the stats
    lifecycle.  Distances must only be evaluated through :meth:`_dist`,
    which keeps :attr:`last_stats` exact.
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
        self._built = False
        self._build_stats = BuildStats()
        self._search_stats = SearchStats()
        self._batch_stats: list[SearchStats] = []
        # Mutation overlay: items inserted after build that the concrete
        # structure does not hold (scanned per query), and ids deleted
        # from the structure but still physically inside it.
        self._pending: dict[int, np.ndarray] = {}
        self._pending_block: np.ndarray | None = None
        self._pending_ids: np.ndarray | None = None  # int64, the block's order
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
        if self._vectors is None:
            raise IndexingError("index has not been built yet")
        return self._vectors.shape[1]

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has succeeded."""
        return self._built

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
        try:
            ids = np.array(
                ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64
            ).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            raise IndexingError("ids must be 64-bit integers") from None
        if ids.shape[0] != vectors.shape[0]:
            raise IndexingError(
                f"{ids.shape[0]} ids but {vectors.shape[0]} vectors"
            )
        if np.unique(ids).shape[0] != ids.shape[0]:
            raise IndexingError("duplicate ids in build input")
        if not np.all(np.isfinite(vectors)):
            raise IndexingError("vectors contain non-finite values")
        self._metric._check_dim(vectors.shape[1])  # kernels run unchecked

        # The one owned working block: ``_build`` arranges it (and the
        # ids) in place, then the backend takes it — no second copy.
        rows = np.array(vectors, dtype=np.float64, order="C")
        self._pending = {}
        self._pending_block = self._pending_ids = None
        self._tombstones = set()
        self._build_stats = BuildStats()
        self._build(ids, rows)
        previous = self._core
        self._core = self.backend_factory.adopt(rows)
        if previous is not None:
            previous.close()
        self._vectors = self._core.view()
        self._row_of = IdMap(ids)
        self._built = True
        return self

    def close(self) -> None:
        """Release the index's storage backend (idempotent).

        Backend files are derived state, so a bounded backend may
        delete them; the index must not be queried afterwards.  The
        database calls this when it replaces a feature's index.
        """
        if self._core is not None:
            self._core.close()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_batch(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Insert new ``(ids[i], vectors[i])`` items into a built index.

        Dynamic structures (:class:`~repro.index.mtree.MTree`,
        :class:`~repro.index.linear.LinearScanIndex`,
        :class:`~repro.index.laesa.LAESAIndex`) grow in place; the
        static trees buffer the items in a pending overlay scanned per
        query until a threshold rebuild folds them in (see
        ``docs/mutability.md``).  Either way the next query sees the
        new items with exact results and exact distance accounting.

        Raises
        ------
        IndexingError
            If the index is unbuilt, an id is already present (live or
            tombstoned), ids repeat, or vectors have the wrong shape or
            non-finite values.
        """
        if not self._built or self._vectors is None:
            raise IndexingError("insert_batch() requires a built index; call build() first")
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self._vectors.shape[1]:
            raise IndexingError(
                f"vectors must be a 2-D array of dim {self._vectors.shape[1]}; "
                f"got shape {vectors.shape}"
            )
        ids = [int(i) for i in ids]
        if len(ids) != vectors.shape[0]:
            raise IndexingError(f"{len(ids)} ids but {vectors.shape[0]} vectors")
        if not ids:
            return
        if not np.all(np.isfinite(vectors)):
            raise IndexingError("vectors contain non-finite values")
        if len(set(ids)) != len(ids):
            raise IndexingError("duplicate ids in insert input")
        held = self._row_of.rows(ids) >= 0
        clashes = [i for i, core in zip(ids, held) if core or i in self._pending]
        if clashes:
            raise IndexingError(
                f"id {min(clashes)} is already indexed "
                f"(tombstoned ids cannot be re-inserted before a rebuild)"
            )
        self._insert_batch(ids, vectors.copy())
        self._maybe_rebuild()

    def delete(self, ids: Sequence[int]) -> None:
        """Delete items by id from a built index.

        The linear scan and LAESA drop the rows outright; tree
        structures tombstone the ids (filtered from every result at no
        distance cost) until a threshold rebuild reclaims the space.

        Raises
        ------
        IndexingError
            If the index is unbuilt, an id is unknown or already
            deleted, or ids repeat.
        """
        if not self._built or self._vectors is None:
            raise IndexingError("delete() requires a built index; call build() first")
        ids = [int(i) for i in ids]
        if not ids:
            return
        if len(set(ids)) != len(ids):
            raise IndexingError("duplicate ids in delete input")
        held = self._row_of.rows(ids) >= 0
        missing = [
            i
            for i, core in zip(ids, held)
            if i not in self._pending and (not core or i in self._tombstones)
        ]
        if missing:
            raise IndexingError(f"id {min(missing)} is not indexed")
        self._delete(ids)
        self._maybe_rebuild()

    # ------------------------------------------------------------------
    # Reading the rows back
    # ------------------------------------------------------------------
    def live_ids(self) -> list[int]:
        """Ids of the live items: core rows in row order (tombstoned
        ones skipped), then pending inserts in arrival order."""
        dead = self._tombstones
        core = self._ids.tolist()
        if dead:
            core = [i for i in core if i not in dead]
        return [*core, *self._pending]

    def vectors_of(self, ids: Sequence[int]) -> np.ndarray:
        """The stored rows of live items, as a fresh ``(len(ids), d)`` array.

        Core rows are gathered with one ``backend.rows()`` call — through
        the buffer pool, counted and capped, on a bounded backend —
        and pending rows come from the overlay.

        Raises
        ------
        IndexingError
            If the index is unbuilt or an id is not live.
        """
        if self._core is None:
            raise IndexingError("index has not been built yet")
        rows = self._row_of.rows(ids)
        if self._tombstones:  # physically in the core, but not live
            rows[[item_id in self._tombstones for item_id in ids]] = -1
        core = rows >= 0
        if core.all():
            return self._core.rows(rows)
        out = np.empty((len(ids), self._core.dim))
        out[core] = self._core.rows(rows[core])
        for position in np.flatnonzero(~core).tolist():
            pending = self._pending.get(int(ids[position]))
            if pending is None:
                raise IndexingError(f"id {ids[position]} is not indexed")
            out[position] = pending
        return out

    def rebuild(self) -> "MetricIndex":
        """Fold the mutation overlay into a fresh structure now.

        Rebuilds over the live item set in ascending-id order (the
        order a fresh build over the same data would use), clearing the
        pending buffer and tombstones.  A no-op when the overlay is
        empty; resets :attr:`build_stats` like any :meth:`build`.
        """
        if not self._built or self._vectors is None:
            raise IndexingError("rebuild() requires a built index; call build() first")
        if not self._pending and not self._tombstones:
            return self
        ids = sorted(self.live_ids())
        if not ids:
            # Nothing left to build over; keep the overlay (queries
            # filter everything out) rather than produce an empty tree.
            return self
        return self.build(ids, self.vectors_of(ids))

    def _insert_batch(self, ids: list[int], vectors: np.ndarray) -> None:
        """Structure hook for insertion; the default buffers the items.

        Overrides that grow the structure in place must also extend the
        core arrays via :meth:`_append_core`.
        """
        self._pending.update(zip(ids, vectors))
        self._pending_block = self._pending_ids = None

    def _delete(self, ids: list[int]) -> None:
        """Structure hook for deletion; the default tombstones core ids
        (pending ones are simply dropped from the buffer)."""
        for item_id in ids:
            if self._pending.pop(item_id, None) is None:
                self._tombstones.add(item_id)
            else:
                self._pending_block = self._pending_ids = None

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

    def _append_core(self, ids: list[int], vectors: np.ndarray) -> None:
        """Extend the validated core arrays (for in-place growers).

        Amortized O(rows appended): the rows land in the spare tail of
        the backend's buffer, which (in memory) only reallocates
        (capacity-doubled) when full — a stream of ``m`` single-row
        inserts costs O(n + m) row copies, not the O(m·n) a full
        re-stack per append costs.  ``_vectors`` stays a read-only view
        of the live rows, so subclasses see the same array contract as
        before.
        """
        assert self._core is not None
        self._vectors = self._core.append(vectors)
        self._row_of.extend(ids)

    def _remove_core(self, ids: list[int]) -> np.ndarray:
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
        if radius < 0.0:
            raise IndexingError(f"radius must be non-negative; got {radius}")
        self._search_stats = SearchStats()
        self._batch_stats = []
        result = self._range_search(query, float(radius))
        result = self._overlay_range(query, float(radius), result)
        result.sort(key=lambda nb: (nb.distance, nb.id))
        return result

    def knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """The ``k`` nearest live items (or all of them when ``k >= size``)."""
        query = self._check_query(query)
        if k < 1:
            raise IndexingError(f"k must be >= 1; got {k}")
        self._search_stats = SearchStats()
        self._batch_stats = []
        result = self._knn_search(query, self._structural_k(int(k)))
        result = self._overlay_knn(query, result, int(k))
        result.sort(key=lambda nb: (nb.distance, nb.id))
        return result[: int(k)]

    def range_search_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[Neighbor]]:
        """``range_search`` for every row of ``queries``; one list per row.

        Equivalent to ``[range_search(q, radius) for q in queries]`` —
        identical results and per-query counters — but routed through the
        metric's batch kernel where an index supports it.
        """
        queries = self._check_query_batch(queries)
        if radius < 0.0:
            raise IndexingError(f"radius must be non-negative; got {radius}")
        results = self._range_search_batch(queries, float(radius))
        return self._overlay_batch(
            queries,
            results,
            lambda query, result: self._overlay_range(query, float(radius), result),
        )

    def knn_search_batch(self, queries: np.ndarray, k: int) -> list[list[Neighbor]]:
        """``knn_search`` for every row of ``queries``; one list per row.

        Equivalent to ``[knn_search(q, k) for q in queries]`` — identical
        results and per-query counters — but routed through the metric's
        batch kernel where an index supports it.
        """
        queries = self._check_query_batch(queries)
        if k < 1:
            raise IndexingError(f"k must be >= 1; got {k}")
        k = int(k)
        results = self._knn_search_batch(queries, self._structural_k(k))
        return self._overlay_batch(
            queries, results, lambda query, result: self._overlay_knn(query, result, k),
            truncate=k,
        )

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
            distances = self._dist_batch(query, self._pending_matrix())
            rows = np.flatnonzero(distances <= radius)
            result.extend(neighbors_at(self._pending_ids, rows, distances))
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
            distances = self._dist_batch(query, self._pending_matrix())
            kth = np.partition(distances, k - 1)[k - 1] if k < len(distances) else np.inf
            rows = np.flatnonzero(~(distances > kth))  # keeps ties (and nan)
            result.extend(neighbors_at(self._pending_ids, rows, distances))
        return result

    def _overlay_batch(self, queries, results, merge_one, truncate: int | None = None):
        """Apply the mutation overlay per query of a finished batch.

        The subclass hooks have already filled ``_batch_stats``; each
        query's pending-buffer scan is counted into *its* stats entry,
        and the aggregate is recomputed afterwards.
        """
        if not (self._tombstones or self._pending):
            return results
        per_query = self._batch_stats
        for i in range(queries.shape[0]):
            self._search_stats = per_query[i]
            merged = merge_one(queries[i], results[i])
            merged.sort(key=lambda nb: (nb.distance, nb.id))
            results[i] = merged if truncate is None else merged[:truncate]
        self._publish_batch(per_query)
        return results

    def _pending_matrix(self) -> np.ndarray:
        """The pending buffer as one cached contiguous ``(p, d)`` block;
        :attr:`_pending_ids` holds its ids, in the same order."""
        if self._pending_block is None:
            self._pending_block = np.ascontiguousarray(
                np.stack(list(self._pending.values()))
            )
            self._pending_ids = np.fromiter(self._pending, np.int64, len(self._pending))
        return self._pending_block

    def _range_search_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[Neighbor]]:
        """Overridable batched hook; the default runs one query at a time.

        Every tree uses the default, so its scalar and batched entry
        points are one traversal.  The one override is
        :class:`~repro.index.filter_refine.FilterRefineIndex`, which
        filters the whole batch with a single reduced-space call; an
        override must fill :attr:`_batch_stats` itself —
        :meth:`_finish_batch` does the shared ordering/aggregation work.
        """
        return self._run_batch(
            queries, lambda query: self._range_search(query, radius)
        )

    def _knn_search_batch(self, queries: np.ndarray, k: int) -> list[list[Neighbor]]:
        """Overridable batched hook; see :meth:`_range_search_batch`."""
        return self._run_batch(queries, lambda query: self._knn_search(query, k))

    def _finish_batch(
        self, results: list[list[Neighbor]], per_query: list[SearchStats]
    ) -> list[list[Neighbor]]:
        """Order results and publish per-query + aggregate batch stats."""
        for result in results:
            result.sort(key=lambda nb: (nb.distance, nb.id))
        self._publish_batch(per_query)
        return results

    def _publish_batch(self, per_query: list[SearchStats]) -> None:
        """Make ``per_query`` the :attr:`last_batch_stats` and their sum
        the :attr:`last_stats` — the one place a batch's stats are summed."""
        self._batch_stats = per_query
        total = SearchStats()
        for stats in per_query:
            total.merge(stats)
        self._search_stats = total

    def _run_batch(self, queries, run_one) -> list[list[Neighbor]]:
        """Run one search per query row, tracking per-query stats.

        Subclasses get their batch speedups by vectorizing the per-query
        hooks themselves (``_range_search`` / ``_knn_search`` built on
        :meth:`_dist_batch`), which keeps the scalar and batched entry
        points one code path and the per-query counters identical by
        construction.
        """
        results, per_query = [], []
        for query in queries:
            self._search_stats = SearchStats()
            results.append(run_one(query))
            per_query.append(self._search_stats)
        return self._finish_batch(results, per_query)

    def _check_query_batch(self, queries: np.ndarray) -> np.ndarray:
        if not self._built or self._vectors is None:
            raise IndexingError("index has not been built yet")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise IndexingError(
                f"queries must be a 2-D (m, d) array; got shape {queries.shape} "
                f"(wrap a single query in a one-row matrix, or use the scalar API)"
            )
        if queries.shape[1] != self._vectors.shape[1]:
            raise IndexingError(
                f"queries have dim {queries.shape[1]}, index expects "
                f"{self._vectors.shape[1]}"
            )
        if not np.all(np.isfinite(queries)):
            raise IndexingError("queries contain non-finite values")
        return queries

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        if not self._built or self._vectors is None:
            raise IndexingError("index has not been built yet")
        query = np.asarray(query, dtype=np.float64).ravel()
        if query.shape != (self._vectors.shape[1],):
            raise IndexingError(
                f"query has dim {query.size}, index expects {self._vectors.shape[1]}"
            )
        if not np.all(np.isfinite(query)):
            raise IndexingError("query contains non-finite values")
        return query

    def _dist(self, a: np.ndarray, b: np.ndarray) -> float:
        """Metric evaluation, counted in the current query's stats."""
        self._search_stats.distance_computations += 1
        return self._metric.distance(a, b)

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

    def _build_dist(self, a: np.ndarray, b: np.ndarray) -> float:
        """Metric evaluation, counted in the build stats."""
        self._build_stats.distance_computations += 1
        return self._metric.distance(a, b)

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
        state = f"size={self.size}" if self._built else "unbuilt"
        return f"{type(self).__name__}({state}, metric={self._metric.name})"
