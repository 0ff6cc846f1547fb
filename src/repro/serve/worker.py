"""The worker's half: what the single batch thread does with its tickets.

:class:`BatchWorker` is only ever touched by the scheduler's one worker
thread, so nothing here takes a lock and reading a query's counters from
``index.last_stats`` is race-free by construction.  The scheduler's
``_execute`` walks a formed batch in arrival order and calls in here
for the three things a batch is made of:

* **a query** (:meth:`BatchWorker.answer`): one scalar database call,
  its counters (``last_stats``) and CPU time (``thread_time``), the
  cache filled stamped with the generation the call ran under;
* **the write barrier** (:meth:`apply` → :meth:`ack`): each mutation
  on its own — validate, journal one record, apply one database call
  (an abort mark follows when the apply fails), one generation bump,
  one entry in the mutation delta log — and acknowledge every applied
  mutation only after one group fsync at the end of the batch
  (log-before-ack — see ``docs/durability.md``);
* **save**: compact the journal into a snapshot, which is itself the
  durability of everything still unacknowledged.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Mapping, Sequence

import numpy as np

from repro.db.database import ImageDatabase
from repro.db.journal import Journal, JournalRecord
from repro.db.recovery import compact
from repro.errors import ServeError
from repro.serve.cache import MutationDeltaLog, ResultCache
from repro.serve.ledger import ServiceLedger
from repro.serve.ticket import Mutation, Request

__all__ = ["BatchWorker"]


class BatchWorker:
    """Executes the queries and mutations of one scheduler's batches."""

    def __init__(
        self,
        db: ImageDatabase,
        cache: ResultCache,
        deltas: MutationDeltaLog,
        journal: Journal | None,
        ledger: ServiceLedger,
    ) -> None:
        self._db = db
        self._cache = cache
        self._deltas = deltas
        self._journal = journal
        self._ledger = ledger
        #: Mutations applied in memory but not yet acknowledged, with
        #: the ids each resolves to — see :meth:`ack`.
        self._pending: list[tuple[Mutation, list[int]]] = []
        #: ``(start, duration_s)`` of the current mutation's journal append;
        #: ``None`` when journaling is off or nothing was appended.
        self._append_span: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def answer(self, request: Request, batch_size: int) -> None:
        """Answer one query with one scalar database call.

        ``batch_size`` (the formed batch's query count) is what its
        :class:`~repro.serve.ticket.ServedResult` reports.
        """
        if not request.future.set_running_or_notify_cancel():
            return
        request.dispatch(time.monotonic())
        engine_start = time.monotonic()
        cpu_start = time.thread_time()
        search = self._db.query if request.kind == "knn" else self._db.range_query
        try:
            results = search(
                request.vector,
                request.parameter,
                feature=request.feature,
                precomputed=True,
            )
        except Exception as error:  # pragma: no cover - defensive
            request.fail(self._ledger, error)
            return
        cpu_ms = (time.thread_time() - cpu_start) * 1e3
        respond_start = time.monotonic()
        # This call's cost: the worker is the only thread that queries
        # the database, so nothing overwrote it.
        stats = self._db.index_for(request.feature).last_stats
        if request.trace is not None:
            request.trace.add_span(
                "engine",
                engine_start,
                respond_start - engine_start,
                cpu_ms=cpu_ms,  # this thread's CPU; wall minus it is waiting
                **asdict(stats),
            )
        if request.key is not None:
            # Stamped with the generation the call ran under — the
            # worker serializes mutations, so this read cannot race one.
            self._cache.put(request.key, results, self._db.generation)
        request.complete(
            self._ledger,
            list(results),
            stats,
            batch_size,
            False,
            respond_start=respond_start,
        )

    # ------------------------------------------------------------------
    # The write barrier: apply → group fsync → ack
    # ------------------------------------------------------------------
    def apply(self, mutation: Mutation) -> None:
        """Journal + apply one mutation as its own barrier.

        One database call, one journal record, one generation bump; the
        record stays buffered and acknowledgement is deferred to
        :meth:`ack`'s group fsync.  A malformed add or an unknown id
        gets the database's own validation error and fails only this
        future — nothing was journaled or applied for it (the record is
        written only after validation, and an abort mark follows it if
        the apply itself fails).
        """
        if not mutation.future.set_running_or_notify_cancel():
            return
        apply_start = time.monotonic()
        mutation.dispatch(apply_start)
        if mutation.kind == "save":
            self._save(mutation)
            return
        self._append_span = None
        try:
            if mutation.kind == "add":
                ids = self._add(
                    mutation.payload,  # type: ignore[arg-type]
                    mutation.labels,
                    mutation.names,
                )
            else:
                ids = list(mutation.payload)  # type: ignore[call-overload]
                self._remove(ids)
        except Exception as error:
            mutation.fail(self._ledger, error)
            return
        trace = mutation.trace
        if trace is not None:
            # Splitting the journal append out keeps the spans
            # non-overlapping (apply = what remains after the append).
            span_start = apply_start
            if self._append_span is not None:
                append_start, append_duration = self._append_span
                trace.add_span("journal-append", append_start, append_duration)
                span_start = append_start + append_duration
            trace.add_span("apply", span_start, time.monotonic() - span_start)
        self._pending.append((mutation, ids))

    def _add(
        self,
        signatures: Mapping[str, np.ndarray] | np.ndarray,
        labels: Sequence[str | None] | None,
        names: Sequence[str] | None,
    ) -> list[int]:
        """Validate → journal → apply one add; record its delta.

        The ids are allocated before the journal write, so the record
        names exactly the ids the apply then inserts.
        """
        matrices, n_rows = self._db.validate_signatures(
            signatures, labels=labels, names=names
        )
        first = self._db.next_image_id()
        ids = list(range(first, first + n_rows))
        seq = None
        if self._journal is not None and ids:
            seq = self._journal.next_seq()
            self._log(JournalRecord.add(seq, ids, matrices, labels, names))
        try:
            self._db.add_vectors(matrices, labels=labels, names=names, ids=ids)
        except Exception:
            self._abort(seq)
            raise
        # Record *after* applying: a lookup racing this window sees the
        # new generation without its delta and safely invalidates.
        self._deltas.record(self._db.generation, ids, matrices)
        return ids

    def _remove(self, image_ids: list[int]) -> None:
        """Validate → journal → apply one remove; record its delta."""
        if not image_ids:
            return
        for image_id in image_ids:
            self._db.catalog.get(image_id)  # raises CatalogError when unknown
        seq = None
        if self._journal is not None:
            seq = self._journal.next_seq()
            self._log(JournalRecord.remove(seq, image_ids))
        try:
            self._db.remove(image_ids)
        except Exception:
            self._abort(seq)
            raise
        self._deltas.record(self._db.generation, image_ids)

    def _log(self, record: JournalRecord) -> None:
        """Append ``record`` (buffered) and time the append."""
        assert self._journal is not None
        started = time.monotonic()
        self._journal.append(record)
        self._append_span = (started, time.monotonic() - started)

    def _abort(self, seq: int | None) -> None:
        """Mark a journaled-but-unapplied mutation aborted (best effort)."""
        if seq is None:
            return
        assert self._journal is not None
        try:
            self._journal.append(JournalRecord.abort(seq))
        except Exception:  # pragma: no cover - the original error matters more
            pass

    def ack(self, *, sync: bool = True) -> None:
        """Resolve the applied-but-unacknowledged mutations' futures.

        One *group fsync* covers every mutation applied since the last
        ack, amortising the durability cost the same way micro-batching
        amortises query cost.  With ``sync=False`` (the post-compaction
        path) the fsync is skipped: the snapshot just written already
        holds the pending mutations, which is a *stronger* durability
        guarantee than a journal record.  A failed fsync fails every
        pending future — the in-memory state is ahead of disk at that
        point, and acknowledging would break the acked-implies-durable
        contract (the process keeps serving; the operator decides
        whether the volume is trustworthy).
        """
        pending, self._pending = self._pending, []
        if not pending:
            return
        fsync = None
        if sync and self._journal is not None:
            fsync_start = time.monotonic()
            try:
                self._journal.sync()
            except Exception as error:
                for mutation, _ids in pending:
                    mutation.fail(self._ledger, error)
                return
            fsync = (fsync_start, time.monotonic() - fsync_start)
        generation = self._db.generation
        for mutation, ids in pending:
            if mutation.trace is not None and fsync is not None:
                # One group fsync covered every pending mutation; each
                # trace carries the same span — that sharing *is* the
                # group-commit story, visible in the waterfall.
                mutation.trace.add_span("journal-fsync", *fsync)
            mutation.complete(
                self._ledger,
                mutation.kind,
                ids,
                generation,
                respond_start=time.monotonic(),
            )

    def _save(self, save: Mutation) -> None:
        """Run the snapshot-compaction barrier (``submit_save``).

        On success the fresh snapshot *is* the durability of every
        pending mutation, so they are acknowledged without an extra
        fsync.  On failure the pending mutations still get their normal
        group fsync (the journal is untouched until the manifest flip)
        and only the save future carries the error.
        """
        compact_start = time.monotonic()
        try:
            if self._journal is None:
                raise ServeError(
                    "no journal configured; construct the scheduler with "
                    "journal= (repro serve --journal DIR) to enable snapshots"
                )
            compact(self._journal, self._db)
        except Exception as error:
            self.ack()
            save.fail(self._ledger, error)
            return
        if save.trace is not None:
            save.trace.add_span(
                "compact", compact_start, time.monotonic() - compact_start
            )
        self.ack(sync=False)
        save.complete(
            self._ledger,
            "save",
            [],
            self._db.generation,
            respond_start=time.monotonic(),
        )
