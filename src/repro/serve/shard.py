"""Sharded scatter-gather engine: N shard views, exact k-way merge.

One ``QueryScheduler`` worker serializes every engine call, so a single
machine's throughput stops at one core no matter how well the kernels
vectorize.  This module splits the item set into **N shards** — each an
independent :class:`~repro.db.database.ImageDatabase` view with its own
full index set — and answers every formed batch by scatter-gather:

1. **scatter** — the group's query matrix goes to every non-empty shard;
   each shard's dedicated worker thread runs the same batched engine
   call the unsharded path would have run, over its slice;
2. **gather** — per-shard result lists (each already sorted by
   ``(distance, id)``, the engine-wide contract) are combined with an
   exact k-way merge on ``(distance, id)`` — k-NN truncates to ``k``,
   range keeps everything.

**Merge exactness.**  Shards partition the items, item ids are globally
unique, and per-item distances are bit-identical whichever shard holds
the item (the metric kernels are row-independent).  The engine's k-NN
contract — including the boundary tie-break — is "top-k by
``(distance, id)``" (a k-th-value partition plus a stable sort of the
rows not beyond it in the linear scan, a ``(-distance, -id)`` max-heap
in the trees), so merging per-shard
top-k lists by the same key reproduces the unsharded answer bit for
bit: ids, distance floats, and order.  Per-query cost counters are
summed across shards — for the linear scan the shard slices sum to
exactly the unsharded ``n`` evaluations; pruning trees may pay more or
less in total because each shard prunes against its own slice.
``tests/test_shard_merge.py`` pins the merge against sorted-truncated
concatenation under hypothesis; ``tests/test_sharded_serving.py`` pins
end-to-end parity against the unsharded engine under randomized
query/mutation interleavings.

**Mutation routing.**  :func:`shard_of` hashes an image id to its home
shard.  ``add_vectors`` allocates globally sequential ids (seeded from
the source database's allocator, so the assignment matches what an
unsharded database would have produced), then routes each row to its
shard's ``add_vectors`` with the id made explicit; ``remove`` validates
every id globally before touching any shard, then routes.  The
scheduler still applies mutations as barriers between query segments —
the engine fans a mutation out and waits for every shard, so
linearizability is unchanged.

**Generations.**  Each shard keeps its own per-feature generation
stamps; the engine's stamp for a feature is the *tuple* across shards.
A result cached above the merge depends on every shard it gathered
from, and tuples make any single shard's movement visible — collapsing
to a scalar (e.g. the per-shard max) would let one shard's mutation
hide behind another's older stamp (regression-tested in
``tests/test_sharded_serving.py``).

Threading: each shard owns one single-thread executor, so a shard's
database is only ever touched by its own thread — the same
single-writer argument the unsharded worker relies on, N times over.
The scheduler worker is the only caller of this engine, so scatter
calls never overlap; parallelism comes from the per-shard threads
running their slices concurrently (NumPy kernels release the GIL for
the bulk of the work).
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.db.database import ImageDatabase
from repro.db.journal import JournalRecord, JournalSet
from repro.db.query import RetrievalResult
from repro.errors import CatalogError, ServeError
from repro.index.stats import SearchStats
from repro.serve.cache import MutationDelta, MutationDeltaLog

__all__ = [
    "shard_of",
    "merge_knn_results",
    "merge_range_results",
    "ShardCall",
    "ScatterReport",
    "ShardedEngine",
]


def shard_of(image_id: int, n_shards: int) -> int:
    """The home shard of an image id.

    Plain modulo: sequential ids (the allocator's output) round-robin
    perfectly, arbitrary ids spread uniformly enough, and tests can
    predict routing without reimplementing a mixer.
    """
    if n_shards < 1:
        raise ServeError(f"n_shards must be >= 1; got {n_shards}")
    return int(image_id) % int(n_shards)


def _result_key(result: RetrievalResult) -> tuple[float, int]:
    return (result.distance, result.image_id)


def merge_knn_results(
    per_shard: Sequence[Sequence[RetrievalResult]], k: int
) -> list[RetrievalResult]:
    """Exact k-way merge of per-shard k-NN lists, truncated to ``k``.

    Each input list must be sorted by ``(distance, image_id)`` — the
    engine's result contract.  The output is identical to sorting the
    concatenation by that key and keeping the first ``k``: ids are
    globally unique, so the key is total and the merge deterministic
    even with duplicate distances.  Lazy (``heapq.merge`` + ``islice``):
    stops after ``k`` items instead of materializing every candidate.
    """
    if k < 1:
        raise ServeError(f"k must be >= 1; got {k}")
    return list(islice(heapq.merge(*per_shard, key=_result_key), k))


@dataclass(frozen=True)
class ShardCall:
    """Timing + cost of one shard's engine call inside a scatter.

    ``start`` is absolute ``time.monotonic()`` (the tracing clock);
    ``stats`` holds that shard's per-query :class:`SearchStats`, row
    ``qi`` matching query row ``qi`` of the scattered matrix — the
    per-shard distance-computation attribution the engine spans carry.
    """

    shard: int
    start: float
    duration_s: float
    stats: list[SearchStats]


@dataclass(frozen=True)
class ScatterReport:
    """What the last scatter-gather cost, shard by shard.

    Written by :meth:`ShardedEngine.query_batch` /
    :meth:`~ShardedEngine.range_query_batch` (the engine is
    single-caller — only the scheduler worker invokes it — so a plain
    attribute is race-free) and read back immediately by the scheduler
    to stamp per-request trace spans.  ``merge_start`` /
    ``merge_duration_s`` time the k-way gather; with one shard the
    merge is the identity and the span is zero-length, kept anyway so
    every trace exposes the same stage set.
    """

    shard_calls: list[ShardCall] = field(default_factory=list)
    merge_start: float = 0.0
    merge_duration_s: float = 0.0


def merge_range_results(
    per_shard: Sequence[Sequence[RetrievalResult]],
) -> list[RetrievalResult]:
    """Exact merge of per-shard range lists (no truncation).

    Range results follow the same ``(distance, id)`` ordering contract
    as k-NN, so the merged list equals the unsharded engine's answer —
    every shard hit, nearest first, ids breaking distance ties.
    """
    return list(heapq.merge(*per_shard, key=_result_key))


class ShardedEngine:
    """Scatter-gather facade over N independent shard databases.

    Parameters
    ----------
    db:
        The source database.  With ``n_shards == 1`` the engine is a
        zero-copy pass-through to ``db`` itself (no threads, no merge) —
        the unsharded scheduler path, unchanged.  With ``n_shards > 1``
        the items are partitioned by :func:`shard_of` into
        :meth:`~repro.db.database.ImageDatabase.shard_view` slices at
        construction; from then on the *engine* owns the live item set
        and the source object serves only as the schema/extraction
        template — do not query or mutate it directly.
    n_shards:
        Number of shards (>= 1).
    journal:
        Optional :class:`~repro.db.journal.JournalSet` (one file per
        shard).  When set, every mutation is appended to its home
        shards' journals *before* it applies in memory; records stay
        buffered until :meth:`sync_journal` (the scheduler's group
        commit) unless the mutation is called with ``sync=True`` (the
        default for direct callers).  An exception while applying an
        already-journaled mutation writes an abort mark so replay skips
        it.

    The engine is single-caller by design: the scheduler's worker thread
    is the only thread that may invoke query/mutation methods (scatter
    internally fans out to the per-shard threads).  Reads like
    :meth:`shard_sizes` are safe from any thread.
    """

    def __init__(
        self,
        db: ImageDatabase,
        n_shards: int = 1,
        *,
        journal: JournalSet | None = None,
    ) -> None:
        if n_shards < 1:
            raise ServeError(f"shards must be >= 1; got {n_shards}")
        if journal is not None and journal.n_shards != n_shards:
            raise ServeError(
                f"journal set has {journal.n_shards} file(s) for "
                f"{n_shards} shard(s)"
            )
        self._template = db
        self._journal = journal
        self._n = int(n_shards)
        self._next_id = db.next_image_id()
        self._shard_requests = [0] * self._n
        if self._n == 1:
            self._shards: list[ImageDatabase] = [db]
            self._pools: list[ThreadPoolExecutor] | None = None
        else:
            ids_by_shard: list[list[int]] = [[] for _ in range(self._n)]
            for image_id in db.catalog.ids:
                ids_by_shard[shard_of(image_id, self._n)].append(image_id)
            self._shards = [db.shard_view(ids) for ids in ids_by_shard]
            self._pools = [
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-shard-{i}"
                )
                for i in range(self._n)
            ]
        self._closed = False
        #: Per-(feature, shard) record of what each generation's
        #: mutation inserted/removed — what cache revalidation reads
        #: (bounded window; see ``repro.serve.cache``).
        self._delta_log = MutationDeltaLog()
        #: Timing/cost of the most recent scatter (scheduler reads it
        #: right after the call it instruments; single-caller, no lock).
        self.last_scatter: ScatterReport | None = None
        #: ``(start, duration_s)`` of the most recent mutation's journal
        #: append, or ``None`` when journaling is off / nothing appended.
        self.last_journal_append: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards (1 = unsharded pass-through)."""
        return self._n

    @property
    def shards(self) -> tuple[ImageDatabase, ...]:
        """The per-shard databases (shard 0 first).

        Exposed for tests and balance introspection; mutating a shard
        directly would race its worker thread.
        """
        return tuple(self._shards)

    @property
    def size(self) -> int:
        """Total live items across all shards."""
        return sum(len(shard) for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Live item count per shard — the balance figure."""
        return [len(shard) for shard in self._shards]

    def shard_requests(self) -> list[int]:
        """Engine calls (query groups + mutations) routed to each shard."""
        return list(self._shard_requests)

    def generation(self, feature: str) -> Hashable:
        """The feature's data-version stamp.

        Unsharded: the database's scalar generation, exactly as before.
        Sharded: the **tuple** of per-shard generations — any single
        shard's mutation changes the stamp, which is what makes cached
        merged results safe (see module docstring).
        """
        if self._n == 1:
            return self._shards[0].generation(feature)
        return tuple(shard.generation(feature) for shard in self._shards)

    def generations(self) -> dict[str, Hashable]:
        """All per-feature stamps (scalars unsharded, tuples sharded)."""
        if self._n == 1:
            return dict(self._shards[0].generations())
        return {
            feature: self.generation(feature)
            for feature in self._template.schema.names
        }

    # ------------------------------------------------------------------
    # Queries (scheduler worker thread only)
    # ------------------------------------------------------------------
    def query_batch(
        self, vectors: np.ndarray, k: int, feature: str
    ) -> tuple[list[list[RetrievalResult]], list[SearchStats]]:
        """Batched k-NN over all shards; merged results + summed stats."""
        return self._scatter("knn", vectors, int(k), feature)

    def range_query_batch(
        self, vectors: np.ndarray, radius: float, feature: str
    ) -> tuple[list[list[RetrievalResult]], list[SearchStats]]:
        """Batched range search over all shards; merged results + stats."""
        return self._scatter("range", vectors, float(radius), feature)

    def _scatter(
        self, kind: str, vectors: np.ndarray, parameter: int | float, feature: str
    ) -> tuple[list[list[RetrievalResult]], list[SearchStats]]:
        if self._n == 1:
            results, stats, call = self._run_shard(
                self._shards[0], 0, kind, vectors, parameter, feature
            )
            # One shard: the gather is the identity.  The zero-length
            # merge span keeps the stage set uniform across shard counts.
            self.last_scatter = ScatterReport(
                shard_calls=[call],
                merge_start=call.start + call.duration_s,
                merge_duration_s=0.0,
            )
            return results, stats

        live = [i for i, shard in enumerate(self._shards) if len(shard) > 0]
        assert self._pools is not None
        futures = [
            self._pools[i].submit(
                self._run_shard, self._shards[i], i, kind, vectors, parameter, feature
            )
            for i in live
        ]
        gathered = [future.result() for future in futures]

        merge_start = time.monotonic()
        m = vectors.shape[0]
        merged_results: list[list[RetrievalResult]] = []
        merged_stats: list[SearchStats] = []
        for qi in range(m):
            per_shard_lists = [results[qi] for results, _stats, _call in gathered]
            if kind == "knn":
                merged_results.append(
                    merge_knn_results(per_shard_lists, int(parameter))
                )
            else:
                merged_results.append(merge_range_results(per_shard_lists))
            total = SearchStats()
            for _results, stats, _call in gathered:
                total.merge(stats[qi])
            merged_stats.append(total)
        self.last_scatter = ScatterReport(
            shard_calls=[call for _results, _stats, call in gathered],
            merge_start=merge_start,
            merge_duration_s=time.monotonic() - merge_start,
        )
        return merged_results, merged_stats

    def _run_shard(
        self,
        shard: ImageDatabase,
        index: int,
        kind: str,
        vectors: np.ndarray,
        parameter: int | float,
        feature: str,
    ) -> tuple[list[list[RetrievalResult]], list[SearchStats], ShardCall]:
        self._shard_requests[index] += 1
        started = time.monotonic()
        if kind == "knn":
            results = shard.query_batch(
                vectors, int(parameter), feature=feature, precomputed=True
            )
        else:
            results = shard.range_query_batch(
                vectors, float(parameter), feature=feature, precomputed=True
            )
        stats = shard.index_for(feature).last_batch_stats
        call = ShardCall(index, started, time.monotonic() - started, stats)
        return results, stats, call

    # ------------------------------------------------------------------
    # Mutations (scheduler worker thread only)
    # ------------------------------------------------------------------
    def add_vectors(
        self,
        signatures: Mapping[str, np.ndarray] | np.ndarray,
        *,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
        sync: bool = True,
    ) -> list[int]:
        """Insert precomputed signatures, routing each row to its shard.

        Ids are allocated globally (sequential, same assignment the
        unsharded database would make) before any shard is touched;
        validation happens up front via
        :meth:`~repro.db.database.ImageDatabase.validate_signatures`, so
        a malformed payload fails atomically — and *before* anything is
        journaled, so a rejected payload leaves no record.  With a
        journal configured, each home shard's record is appended next,
        then the insert applies (in parallel on the shard threads when
        sharded); ``sync=False`` leaves the records buffered for the
        scheduler's per-batch group fsync.  The call returns once every
        shard has applied — the scheduler's barrier semantics are
        preserved.
        """
        self.last_journal_append = None
        matrices, n_rows = self._template.validate_signatures(
            signatures, labels=labels, names=names
        )
        next_id = (
            self._shards[0].next_image_id() if self._n == 1 else self._next_id
        )
        ids = list(range(next_id, next_id + n_rows))

        rows_by_shard: list[list[int]] = [[] for _ in range(self._n)]
        for row, image_id in enumerate(ids):
            rows_by_shard[shard_of(image_id, self._n)].append(row)

        seq = self._journal_add(rows_by_shard, ids, matrices, labels, names)
        try:
            if self._n == 1:
                self._shards[0].add_vectors(
                    matrices, labels=labels, names=names, ids=ids
                )
            else:
                assert self._pools is not None
                futures = []
                for shard_index, rows in enumerate(rows_by_shard):
                    if not rows:
                        continue
                    self._shard_requests[shard_index] += 1
                    futures.append(
                        self._pools[shard_index].submit(
                            self._shards[shard_index].add_vectors,
                            {
                                feature: matrix[rows]
                                for feature, matrix in matrices.items()
                            },
                            labels=[labels[row] for row in rows]
                            if labels is not None
                            else None,
                            names=[names[row] for row in rows]
                            if names is not None
                            else None,
                            ids=[ids[row] for row in rows],
                        )
                    )
                for future in futures:
                    future.result()
        except Exception:
            self._journal_abort(seq)
            raise
        if self._n > 1:
            self._next_id += n_rows
        # Record *after* applying: a lookup racing this window sees the
        # new generation without its delta and safely invalidates.
        for shard_index, rows in enumerate(rows_by_shard):
            if not rows:
                continue
            shard = self._shards[shard_index]
            shard_ids = [ids[row] for row in rows]
            for feature, matrix in matrices.items():
                self._delta_log.record_add(
                    (feature, shard_index),
                    shard.generation(feature),
                    shard_ids,
                    matrix[rows],
                )
        if sync:
            self.sync_journal()
        return ids

    def remove(
        self, image_ids: Sequence[int], *, sync: bool = True
    ) -> list[int]:
        """Remove images by id, routing each to its home shard.

        Validates every id against its shard's catalog *before* any
        shard mutates or any journal record is written (matching the
        unsharded validate-first contract: an unknown id fails the whole
        call and nothing changes), then journals, then applies per shard
        in parallel and returns the ids in call order.
        """
        self.last_journal_append = None
        image_ids = [int(image_id) for image_id in image_ids]
        if not image_ids:
            return []
        if len(set(image_ids)) != len(image_ids):
            from repro.errors import QueryError

            raise QueryError(f"duplicate ids in remove input: {image_ids}")
        ids_by_shard: list[list[int]] = [[] for _ in range(self._n)]
        for image_id in image_ids:
            home = shard_of(image_id, self._n)
            self._shards[home].catalog.get(image_id)  # raises when unknown
            ids_by_shard[home].append(image_id)

        seq = self._journal_remove(ids_by_shard)
        try:
            if self._n == 1:
                self._shards[0].remove(image_ids)
            else:
                assert self._pools is not None
                futures = []
                for shard_index, ids in enumerate(ids_by_shard):
                    if not ids:
                        continue
                    self._shard_requests[shard_index] += 1
                    futures.append(
                        self._pools[shard_index].submit(
                            self._shards[shard_index].remove, ids
                        )
                    )
                for future in futures:
                    future.result()
        except Exception:
            self._journal_abort(seq)
            raise
        for shard_index, shard_ids in enumerate(ids_by_shard):
            if not shard_ids:
                continue
            shard = self._shards[shard_index]
            for feature in self._template.schema.names:
                self._delta_log.record_remove(
                    (feature, shard_index), shard.generation(feature), shard_ids
                )
        if sync:
            self.sync_journal()
        return image_ids

    # ------------------------------------------------------------------
    # Mutation staging (coalescing support)
    # ------------------------------------------------------------------
    def validate_add(
        self,
        signatures: Mapping[str, np.ndarray] | np.ndarray,
        *,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
    ) -> tuple[dict[str, np.ndarray], int]:
        """Validate an add payload without applying it.

        Returns the normalized ``{feature: (n, d) float64 matrix}``
        mapping and the row count, exactly as
        :meth:`~repro.db.database.ImageDatabase.validate_signatures`.
        The scheduler stages payloads through this before coalescing
        adjacent adds, so a malformed member fails alone instead of
        poisoning the merged engine call.
        """
        return self._template.validate_signatures(
            signatures, labels=labels, names=names
        )

    def has_id(self, image_id: int) -> bool:
        """True when ``image_id`` is live on its home shard.

        The scheduler's remove-coalescing pre-check: a member whose ids
        are not all live is applied alone (and fails with the engine's
        own error) rather than failing the whole coalesced call.
        """
        try:
            self._shards[shard_of(image_id, self._n)].catalog.get(int(image_id))
        except CatalogError:
            return False
        return True

    @property
    def delta_log(self) -> MutationDeltaLog:
        """The bounded per-generation mutation record (revalidation feed)."""
        return self._delta_log

    def deltas_between(
        self, feature: str, old: Hashable, new: Hashable
    ) -> list[MutationDelta] | None:
        """Every mutation delta for ``feature`` between two stamps.

        ``old``/``new`` are generation stamps as :meth:`generation`
        hands them out — scalars unsharded, per-shard tuples sharded.
        Returns the deltas in shard order (within a shard, generation
        order), or ``None`` when any part of the range left the bounded
        window — the caller must then treat the cached entry as
        unprovable and invalidate.
        """
        if self._n == 1:
            return self._delta_log.between((feature, 0), old, new)
        if (
            not isinstance(old, tuple)
            or not isinstance(new, tuple)
            or len(old) != self._n
            or len(new) != self._n
        ):
            return None
        deltas: list[MutationDelta] = []
        for shard_index in range(self._n):
            if old[shard_index] == new[shard_index]:
                continue
            part = self._delta_log.between(
                (feature, shard_index), old[shard_index], new[shard_index]
            )
            if part is None:
                return None
            deltas.extend(part)
        return deltas

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    @property
    def journal(self) -> JournalSet | None:
        """The write-ahead journal set, when durability is on."""
        return self._journal

    def sync_journal(self) -> float:
        """Fsync buffered journal records (no-op without a journal).

        The durability point: once this returns, every mutation
        journaled since the previous sync may be acknowledged.  The
        scheduler calls it once per formed batch (group commit).
        """
        if self._journal is None:
            return 0.0
        return self._journal.sync()

    def _journal_add(
        self,
        rows_by_shard: list[list[int]],
        ids: list[int],
        matrices: Mapping[str, np.ndarray],
        labels: Sequence[str | None] | None,
        names: Sequence[str] | None,
    ) -> int | None:
        if self._journal is None or not ids:
            return None
        seq = self._journal.next_seq()
        records = {}
        for shard_index, rows in enumerate(rows_by_shard):
            if not rows:
                continue
            records[shard_index] = JournalRecord.add(
                seq,
                [ids[row] for row in rows],
                {feature: matrix[rows] for feature, matrix in matrices.items()},
                [labels[row] for row in rows] if labels is not None else None,
                [names[row] for row in rows] if names is not None else None,
                total=len(ids),
            )
        started = time.monotonic()
        self._journal.append_records(records)
        self.last_journal_append = (started, time.monotonic() - started)
        return seq

    def _journal_remove(self, ids_by_shard: list[list[int]]) -> int | None:
        if self._journal is None:
            return None
        seq = self._journal.next_seq()
        n_total = sum(len(ids) for ids in ids_by_shard)
        records = {
            shard_index: JournalRecord.remove(seq, ids, total=n_total)
            for shard_index, ids in enumerate(ids_by_shard)
            if ids
        }
        started = time.monotonic()
        self._journal.append_records(records)
        self.last_journal_append = (started, time.monotonic() - started)
        return seq

    def _journal_abort(self, seq: int | None) -> None:
        """Mark a journaled-but-unapplied mutation aborted (best effort)."""
        if self._journal is None or seq is None:
            return
        try:
            self._journal.append_abort(seq)
        except Exception:  # pragma: no cover - the original error matters more
            pass

    def merged_database(self) -> ImageDatabase:
        """One database over the engine's full live item set.

        Unsharded this *is* the live database; sharded it is a fresh
        merge of the shard views (ascending id order, no index build) —
        what snapshot compaction saves.
        """
        if self._n == 1:
            return self._shards[0]
        return ImageDatabase.from_views(self._shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the executors down; sync + close the journal (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
        if self._journal is not None:
            self._journal.close()

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(shards={self._n}, sizes={self.shard_sizes()}, "
            f"{'closed' if self._closed else 'open'})"
        )
