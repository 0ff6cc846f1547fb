"""The worker's half: what the single batch thread does with its tickets.

:class:`BatchWorker` is only ever touched by the scheduler's one worker
thread, so nothing here takes a lock and ``last_batch_stats``
attribution is race-free by construction.  The scheduler's
``_execute`` replays a formed batch in arrival order and calls in here
for the three things a batch is made of:

* **query segments** (:meth:`BatchWorker.run_queries`): group by
  ``(kind, feature, parameter)``, dedup byte-identical vectors, one
  engine call per group, per-request stats attributed from the engine's
  scatter report, cache filled stamped with the generation the call ran
  under;
* **the write barrier** (:meth:`collect_run` → :meth:`apply_run` →
  :meth:`ack`): stage adjacent same-kind mutations into a run, journal
  + apply the run as one engine call, and acknowledge every applied
  mutation only after one group fsync at the end of the batch
  (log-before-ack — see ``docs/durability.md``);
* **save** — a run of its own: compact the journal into a snapshot,
  which is itself the durability of everything still unacknowledged.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.db.journal import JournalSet
from repro.db.recovery import compact
from repro.errors import ServeError
from repro.serve.cache import ResultCache
from repro.serve.ledger import ServiceLedger
from repro.serve.shard import ShardedEngine
from repro.serve.ticket import Mutation, Request, Ticket

__all__ = ["BatchWorker"]


class BatchWorker:
    """Executes query segments and mutation runs for one scheduler."""

    def __init__(
        self,
        engine: ShardedEngine,
        cache: ResultCache,
        journal: JournalSet | None,
        ledger: ServiceLedger,
    ) -> None:
        self._engine = engine
        self._cache = cache
        self._journal = journal
        self._ledger = ledger
        #: Mutations applied in memory but not yet acknowledged, with
        #: the ids each resolves to — see :meth:`ack`.
        self._pending: list[tuple[Mutation, list[int]]] = []

    # ------------------------------------------------------------------
    # Query segments
    # ------------------------------------------------------------------
    def run_queries(self, segment: list[Request]) -> None:
        """Answer one mutation-free query segment, one call per group."""
        groups: dict[tuple[str, str, int | float], list[Request]] = {}
        for request in segment:
            groups.setdefault(
                (request.kind, request.feature, request.parameter), []
            ).append(request)
        for (kind, feature, parameter), members in groups.items():
            self._ledger.group_size.observe(len(members))
            live = [
                request
                for request in members
                if request.future.set_running_or_notify_cancel()
            ]
            if not live:
                continue
            # In-flight dedup: identical queries inside one formed group
            # (same kind/feature/parameter by grouping, byte-identical
            # vector here) are evaluated once; every duplicate's future
            # is fanned the same results.  Byte equality implies the same
            # floats, so the engine answer — and the per-request stats
            # attribution — is bit-identical to evaluating each copy.
            slots: dict[bytes, int] = {}
            unique: list[Request] = []
            assignment: list[int] = []
            for request in live:
                slot = slots.setdefault(request.vector.tobytes(), len(unique))
                if slot == len(unique):
                    unique.append(request)
                assignment.append(slot)
            if len(unique) < len(live):
                self._ledger.dedup_hits.inc(len(live) - len(unique))
            vectors = np.stack([request.vector for request in unique])
            group_start = time.monotonic()
            for request in live:
                request.dispatch(group_start, group_size=len(unique))
            try:
                if kind == "knn":
                    result_lists, per_slot_stats = self._engine.query_batch(
                        vectors, int(parameter), feature
                    )
                else:
                    result_lists, per_slot_stats = self._engine.range_query_batch(
                        vectors, float(parameter), feature
                    )
            except Exception as error:  # pragma: no cover - defensive
                self._fail(live, error)
                continue
            # Per-shard call timing + per-row cost from the engine's
            # scatter report (single-caller: the worker thread is the
            # only reader, and the report is from *this* call).
            scatter = self._engine.last_scatter
            # Stamp cached entries with the generation the engine call
            # ran under — the worker serializes mutations, so this read
            # cannot race a concurrent add/remove.  Sharded schedulers
            # stamp the per-shard generation tuple.
            generation = self._engine.generation(feature)
            for request, slot in zip(live, assignment):
                trace = request.trace
                if trace is not None and scatter is not None:
                    for call in scatter.shard_calls:
                        trace.add_span(
                            "engine",
                            call.start,
                            call.duration_s,
                            shard=call.shard,
                            distance_computations=call.stats[
                                slot
                            ].distance_computations,
                        )
                    trace.add_span(
                        "merge", scatter.merge_start, scatter.merge_duration_s
                    )
                respond_start = time.monotonic()
                results = result_lists[slot]
                if request.key is not None:
                    self._cache.put(request.key, results, generation)
                request.complete(
                    self._ledger,
                    list(results),
                    per_slot_stats[slot],
                    len(unique),
                    False,
                    respond_start=respond_start,
                )

    def _fail(self, tickets: Iterable[Ticket], error: BaseException) -> None:
        for ticket in tickets:
            ticket.fail(self._ledger, error)

    # ------------------------------------------------------------------
    # The write barrier: stage → apply → group fsync → ack
    # ------------------------------------------------------------------
    def collect_run(
        self, batch: list[Ticket], position: int
    ) -> tuple[list[Mutation], int]:
        """Gather the longest coalescible mutation run starting at ``position``.

        A neighbour joins the run only when applying the merged engine
        call is observably identical to applying the members one by one:

        * same kind (adjacent adds, or adjacent removes — never mixed,
          and a ``save`` barrier always stands alone);
        * adds: every member validates on its own (a malformed payload
          must fail only its future, so it breaks the run and applies —
          and fails — alone) and explicit/default naming is uniform
          (default names derive from allocated ids and cannot be mixed
          into one engine call with explicit ones);
        * removes: every member's ids are live and disjoint from the
          ids already claimed by the run (an overlap or unknown id must
          fail exactly the member that would have failed serially, so
          that member starts its own run and gets the engine's own
          error).

        Returns the run and the position just past it.  The run is
        never empty; an unstageable head is returned alone, and
        :meth:`apply_run` hands a run of one to the engine as the raw
        payload it arrived as.
        """
        head = batch[position]
        assert isinstance(head, Mutation)
        run = [head]
        position += 1
        claimed: set[int] = set()
        extendable = head.kind != "save" and self._stage(head, head, claimed)
        while extendable and position < len(batch):
            nxt = batch[position]
            if not isinstance(nxt, Mutation) or not self._stage(nxt, head, claimed):
                break
            run.append(nxt)
            position += 1
        return run, position

    def _stage(self, mutation: Mutation, head: Mutation, claimed: set[int]) -> bool:
        """True when ``mutation`` may share ``head``'s engine call.

        Adds are pre-validated (the normalized matrices are kept on the
        ticket); removes must name only live ids the run has not
        already ``claimed``.
        """
        if mutation.kind != head.kind:
            return False
        if mutation.kind == "add":
            if (mutation.names is None) != (head.names is None):
                return False
            if mutation.staged is None:
                try:
                    mutation.staged = self._engine.validate_add(
                        mutation.payload,  # type: ignore[arg-type]
                        labels=mutation.labels,
                        names=mutation.names,
                    )
                except Exception:
                    return False
            return True
        ids = mutation.payload
        assert isinstance(ids, list)
        if any(image_id in claimed for image_id in ids):
            return False
        if not all(self._engine.has_id(image_id) for image_id in ids):
            return False
        claimed.update(ids)
        return True

    def apply_run(self, run: list[Mutation]) -> None:
        """Journal + apply one mutation run as a single barrier.

        One engine call covers every live member — one journal record
        set, one group-fsync share, one generation bump — and the
        result ids are attributed back per future in arrival order
        (adds slice the allocated id range by each member's row count;
        removes keep their own id lists).  ``sync=False`` leaves the
        journal records buffered: acknowledgement is deferred to
        :meth:`ack`'s group fsync.

        A run of one goes to the engine as the raw payload it arrived
        as, so a malformed add or an unknown id gets the engine's own
        validation error and fails only that future — nothing was
        journaled or applied for it (the engine writes the record only
        after validation, and aborts it if the apply itself fails).  A
        longer run only contains members that would each have succeeded
        serially (see :meth:`collect_run`), so a failure there is
        environmental (e.g. a journal write error), would have hit the
        serial path too, and fails every member.
        """
        live = [
            mutation
            for mutation in run
            if mutation.future.set_running_or_notify_cancel()
        ]
        if not live:
            return
        apply_start = time.monotonic()
        for mutation in live:
            mutation.dispatch(apply_start, coalesced=len(live))
        head = live[0]
        if head.kind == "save":
            self._save(head)
            return
        try:
            if head.kind == "add":
                id_slices = self._add(live)
            else:
                id_slices = [list(mutation.payload) for mutation in live]  # type: ignore[call-overload]
                self._engine.remove(
                    [image_id for ids in id_slices for image_id in ids], sync=False
                )
        except Exception as error:
            self._fail(live, error)
            return
        # The append happened inside the engine call; splitting it out
        # keeps the spans non-overlapping (apply = what remains of the
        # engine call after the journal write).
        append = self._engine.last_journal_append
        apply_end = time.monotonic()
        for mutation in live:
            trace = mutation.trace
            if trace is None:
                continue
            span_start = apply_start
            if append is not None:
                append_start, append_duration = append
                trace.add_span("journal-append", append_start, append_duration)
                span_start = append_start + append_duration
            trace.add_span("apply", span_start, apply_end - span_start)
        self._ledger.coalesced.inc(len(live) - 1)
        self._pending.extend(zip(live, id_slices))

    def _add(self, live: list[Mutation]) -> list[list[int]]:
        """One ``add_vectors`` call for the run; allocated ids per member."""
        head = live[0]
        if len(live) == 1:
            ids = self._engine.add_vectors(
                head.payload,  # type: ignore[arg-type]
                labels=head.labels,
                names=head.names,
                sync=False,
            )
            return [ids]
        staged = [mutation.staged for mutation in live]
        assert all(entry is not None for entry in staged)
        counts = [n_rows for _matrices, n_rows in staged]  # type: ignore[misc]
        merged = {
            feature: np.vstack(
                [matrices[feature] for matrices, _n in staged]  # type: ignore[misc]
            )
            for feature in staged[0][0]  # type: ignore[index]
        }
        names = None
        if head.names is not None:
            names = [name for mutation in live for name in mutation.names]  # type: ignore[union-attr]
        labels = None
        if any(mutation.labels is not None for mutation in live):
            labels = []
            for mutation, n_rows in zip(live, counts):
                labels.extend(mutation.labels or [None] * n_rows)
        ids = self._engine.add_vectors(merged, labels=labels, names=names, sync=False)
        bounds = np.cumsum([0] + counts)
        return [ids[start:stop] for start, stop in zip(bounds, bounds[1:])]

    def ack(self, *, sync: bool = True) -> None:
        """Resolve the applied-but-unacknowledged mutations' futures.

        One *group fsync* covers every mutation applied since the last
        ack, amortising the durability cost the same way coalescing
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
        if sync:
            fsync_start = time.monotonic()
            try:
                self._engine.sync_journal()
            except Exception as error:
                self._fail((mutation for mutation, _ids in pending), error)
                return
            if self._journal is not None:
                fsync = (fsync_start, time.monotonic() - fsync_start)
        generations = self._engine.generations()
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
                generations,
                respond_start=time.monotonic(),
            )

    def _save(self, save: Mutation) -> None:
        """Run the snapshot-compaction barrier (``submit_save``).

        On success the fresh snapshot *is* the durability of every
        pending mutation, so they are acknowledged without an extra
        fsync.  On failure the pending mutations still get their normal
        group fsync (the journals are untouched until the manifest
        flip) and only the save future carries the error.
        """
        compact_start = time.monotonic()
        try:
            if self._journal is None:
                raise ServeError(
                    "no journal configured; construct the scheduler with "
                    "journal= (repro serve --journal DIR) to enable snapshots"
                )
            compact(self._journal, self._engine.merged_database())
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
            self._engine.generations(),
            respond_start=time.monotonic(),
        )
