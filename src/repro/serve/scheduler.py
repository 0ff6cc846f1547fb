"""Micro-batch scheduler: concurrent requests → formed batches.

An online service receives *independent* single queries from many
clients.  This module admits them into a bounded queue and lets one
worker take the head plus whatever is already queued behind it (at
most ``max_batch``) and walk that formed batch in arrival order,
answering each query with its own scalar ``ImageDatabase.query`` /
``range_query`` call.  Callers get
:class:`~concurrent.futures.Future` objects that resolve to
:class:`ServedResult`.  The worker never holds a batch open waiting for
company: what a formed batch shares is its mutations' group fsync, not
engine work, so a wait would only add latency.  It yields the GIL once
per batch instead, so the HTTP thread's cache hits and replies do not
queue behind the engine.

**Parity is the contract.**  Every query goes through the same
``ImageDatabase.query`` / ``range_query`` call a direct caller makes
(ids, distance floats, tie-breaks, and cost counters); batching changes
only when an answer is computed.  The concurrency parity suite
(``tests/test_serve.py``) replays every served request directly
against the database and demands equality.

Request lifecycle::

    submit_query/submit_range
      ├─ validate (feature, k/radius, dimensionality) — errors raise
      │  in the caller, never poison a batch
      ├─ cache lookup at the current generation — a fresh hit resolves
      │  the future immediately; a stale-generation entry is first
      │  checked against the mutation delta log (a provably unchanged
      │  entry is re-stamped and served — a *revalidation*), otherwise
      │  evicted (counted) and the request proceeds
      └─ enqueue (bounded; QueueFullError if full) ► worker
    submit_add/submit_remove                          ├─ drain ≤ max_batch:
      └─ enqueue (same queue, same                    │  the head plus what
         bound) ─────────────────────────────────────►│  is already queued
                                                      ├─ walk arrival order:
                                                      │  each query one
                                                      │  scalar engine call,
                                                      │  stats from
                                                      │  index.last_stats;
                                                      │  each mutation one
                                                      │  barrier between them
                                                      └─ resolve futures; fill
                                                         cache stamped with the
                                                         database's generation;
                                                         one group fsync acks
                                                         the batch's mutations

**Mutations serialize with query batches.**  ``submit_add`` /
``submit_remove`` ride the same admission queue as queries and are
applied by the same single worker thread, in arrival order: every query
admitted before a mutation is answered against the pre-mutation
database, every query admitted after it against the post-mutation one —
the service is linearizable without a single lock reaching the engine.
Results are cached stamped with the database's
:attr:`~repro.db.database.ImageDatabase.generation` at execution time;
a later lookup under a newer generation lazily evicts the entry
(``ServiceStats.cache_invalidations``) instead of flushing the cache.

The worker is a single thread, so the underlying ``ImageDatabase`` and
its indexes are only ever touched serially — no locks reach the engine,
and reading a query's counters from ``last_stats`` is race-free by
construction.

**Admission control.**  Beyond the bounded queue
(:class:`~repro.errors.QueueFullError`, HTTP 503, when full), an
optional token bucket (``rate_limit_qps`` / ``rate_limit_burst``)
throttles sustained request rates: an empty bucket fails the submission
fast with :class:`~repro.errors.RateLimitError` (HTTP 429) —
*throttled* and *overloaded* are distinct signals to a client deciding
between backoff and failover.

**Observability.**  Every event is counted once, in the
:class:`~repro.serve.ledger.ServiceLedger`'s metric families:
per-route latency histograms (fixed log-spaced buckets), admission
counters by outcome, a formed-batch-size histogram.
:meth:`QueryScheduler.render_metrics` (the HTTP ``GET /metrics`` body)
renders them with scrape-time gauges for queue depth, item count,
cache, journal and buffer pool;
:meth:`QueryScheduler.stats` (``GET /stats``) is a view over the same
families plus a bounded latency window.

**Tracing.**  With ``trace_depth > 0`` (the default) every request also
carries a :class:`~repro.serve.trace.Trace`: one span per pipeline
stage (``admit``, ``cache-lookup``, ``queue-wait``, ``batch-form``,
``engine`` with the request's exact ``SearchStats`` counters,
``journal-append`` / ``journal-fsync`` on the write path, ``respond``).
Completed traces land in a bounded flight recorder and — past
``slow_query_ms`` — a slow-query log, both served by the HTTP
``/debug/*`` endpoints; span durations additionally feed the
``repro_stage_seconds`` histogram.  ``trace_depth=0`` turns the whole
machinery off (no per-request allocation).  See
``docs/observability.md``.

**Where the code lives.**  This module is the constructor, the
lifecycle and the worker thread's two loops (``_run`` drains a batch,
``_execute`` replays it in arrival order).  The caller-thread half —
validate, rate-limit, cache lookup, enqueue — is
``repro.serve.admission``; what the worker does with a query or a
mutation — the write barrier included — is
``repro.serve.worker``; the tickets that travel between them are
``repro.serve.ticket``.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import Counter
from concurrent.futures import Future
from typing import Mapping, Sequence

import numpy as np

from repro.db.database import ImageDatabase
from repro.db.journal import Journal
from repro.errors import QueryError, ServeError, ShuttingDownError
from repro.image.core import Image
from repro.index.base import check_count
from repro.serve.admission import Admission, TokenBucket
from repro.serve.cache import MutationDeltaLog, ResultCache
from repro.serve.ledger import LiveState, ServiceLedger
from repro.serve.metrics import MetricsRegistry
from repro.serve.stats import ServiceStats
from repro.serve.ticket import Mutation, MutationResult, Request, ServedResult, Ticket
from repro.serve.trace import FlightRecorder, SlowQueryLog, Trace
from repro.serve.worker import BatchWorker

__all__ = ["ServedResult", "MutationResult", "TokenBucket", "QueryScheduler"]

#: Queue sentinel: drain what is already admitted, then stop.
_SHUTDOWN = None


class QueryScheduler:
    """Collects concurrent k-NN/range requests into formed batches.

    Parameters
    ----------
    db:
        The database to serve.  It may mutate while serving — but only
        through :meth:`submit_add` / :meth:`submit_remove`, which
        serialize with query batches on the worker thread.  Mutating
        the database directly while the scheduler is running would race
        the worker; do that only with the scheduler closed.
    max_batch:
        Largest formed batch (default 32).  ``1`` degenerates to
        one-request-at-a-time handling — the benchmark baseline.
    max_wait_ms:
        Has no effect (must be finite and >= 0): the worker never waits
        for company, a formed batch is what is already queued.  Kept
        only because the end-to-end benchmark harness still passes
        ``max_wait_ms=2.0``; it is removed once the harness stops
        passing it.
    max_queue:
        Admission-queue bound (default 1024).  Submissions beyond it
        fail fast with :class:`~repro.errors.ServeError` — backpressure
        instead of unbounded memory.
    cache_size:
        :class:`~repro.serve.cache.ResultCache` capacity
        (``cache_size=0`` disables caching).
    shards:
        Accepts only 1 (anything else raises
        :class:`~repro.errors.ServeError`): one database answers every
        request.  Kept only because the end-to-end benchmark harness
        still passes ``shards=1``; it is removed once the harness stops
        passing it.
    rate_limit_qps / rate_limit_burst:
        Optional token-bucket admission throttle: sustained requests
        per second and bucket capacity (default burst = max(1, qps)).
        An empty bucket fails submissions fast with
        :class:`~repro.errors.RateLimitError` (HTTP 429); ``None``
        disables throttling, and a burst without a rate is refused.
    journal:
        Optional :class:`~repro.db.journal.Journal` for crash-safe
        durability (see ``docs/durability.md``).  Mutations are
        journaled on the worker before they apply, and their futures
        only resolve after one *group fsync* at the end of the formed
        batch — an acknowledged mutation is always durable.
        :meth:`submit_save` compacts the journal into a fresh snapshot
        as a barrier between batches.  The scheduler owns the journal
        and closes it on :meth:`close`.
    trace_depth:
        Flight-recorder capacity: the newest ``trace_depth`` completed
        request traces are retained for ``GET /debug/traces`` /
        ``GET /debug/trace?id=`` (default 256).  ``0`` disables tracing
        entirely — no per-request trace allocation, no span recording —
        the configuration the overhead benchmark compares against.
    slow_query_ms:
        Requests whose end-to-end latency reaches this threshold are
        *also* kept in the slow-query log (``GET /debug/slow``), which
        fast traffic cannot flush (default 100.0).  ``None`` disables
        the slow log while leaving the flight recorder on.
    autostart:
        Start the worker thread immediately (default).  Pass ``False``
        to stage requests first and call :meth:`start` explicitly —
        load tests use this to exercise the admission bound
        deterministically.
    """

    def __init__(
        self,
        db: ImageDatabase,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
        cache_size: int = 1024,
        shards: int = 1,
        rate_limit_qps: float | None = None,
        rate_limit_burst: float | None = None,
        journal: Journal | None = None,
        trace_depth: int = 256,
        slow_query_ms: float | None = 100.0,
        autostart: bool = True,
    ) -> None:
        if shards != 1:
            raise ServeError(f"shards must be 1; got {shards}")
        # A count must be an integer: 2.5 would be truncated without a
        # word (or reach queue.Queue), and NaN passes a ``<`` check.
        for name, value, minimum in (
            ("max_batch", max_batch, 1),
            ("max_queue", max_queue, 1),
            ("trace_depth", trace_depth, 0),
        ):
            check_count(name, value, minimum, ServeError)
        if not math.isfinite(max_wait_ms) or max_wait_ms < 0.0:
            # Unused, but a bad value is still a caller's mistake.
            raise ServeError(
                f"max_wait_ms must be finite and >= 0; got {max_wait_ms}"
            )
        if rate_limit_burst is not None and rate_limit_qps is None:
            # The bucket is built only for a rate, so a lone burst —
            # valid or not — would be ignored without a word.
            raise ServeError(
                f"rate_limit_burst needs rate_limit_qps; got burst "
                f"{rate_limit_burst} and no rate"
            )
        if slow_query_ms is not None and not (
            math.isfinite(slow_query_ms) and slow_query_ms >= 0.0
        ):
            # A NaN threshold would log every request as slow.
            raise ServeError(
                f"slow_query_ms must be finite and >= 0, or None; "
                f"got {slow_query_ms}"
            )
        self._db = db
        self._journal = journal
        self._max_batch = int(max_batch)
        self._queue: queue.Queue[Ticket | None] = queue.Queue(maxsize=max_queue)
        self._cache = ResultCache(cache_size)
        #: What each generation's mutation inserted/removed — what
        #: cache revalidation reads (see ``repro.serve.cache``).
        self._deltas = MutationDeltaLog()
        self._ledger = ServiceLedger(trace_depth, slow_query_ms)
        if journal is not None:
            journal.on_fsync = self._ledger.journal_fsync.observe
        limiter = None
        if rate_limit_qps is not None:
            limiter = TokenBucket(rate_limit_qps, rate_limit_burst)
        self._admission = Admission(
            db, self._cache, self._deltas, self._ledger, self._queue, limiter
        )
        self._worker = BatchWorker(
            db, self._cache, self._deltas, journal, self._ledger
        )
        self._abandon = False
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-worker", daemon=True
        )
        self._started = False
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryScheduler":
        """Launch the batch-forming worker (idempotent)."""
        with self._lock:
            if self._admission.closed:
                raise ServeError("scheduler is closed")
            if not self._started:
                self._thread.start()
                self._started = True
        return self

    def close(self, timeout: float | None = None, *, drain: bool = True) -> None:
        """Stop accepting requests, settle the queue, join the worker.

        Submissions after ``close`` begins raise
        :class:`~repro.errors.ShuttingDownError`.  With ``drain`` (the
        default) every request admitted before the close is still
        served.  With ``drain=False`` — the SIGTERM path — the batch the
        worker is currently executing completes and its mutations reach
        the journal (an acknowledged write is never abandoned), but
        everything still *queued* fails fast with ``ShuttingDownError``
        instead of hanging a terminating process on a backlog.  Either
        way the journal, when configured, is synced and closed.  On a
        scheduler that never started, staged requests fail with
        ``ShuttingDownError`` instead of stranding their futures (a
        blocking sentinel put could also deadlock on a full queue with
        no consumer).
        """
        with self._lock:
            if not self._admission.close():
                return
            self._abandon = not drain
            started = self._started
        if started:
            self._queue.put(_SHUTDOWN)
            self._thread.join(timeout)
        else:
            while not self._queue.empty():
                self._fail_shutting_down(
                    self._queue.get_nowait(), "scheduler closed before starting"
                )
        if self._journal is not None:
            self._journal.close()

    def _fail_shutting_down(self, item: Ticket, message: str) -> None:
        if item.future.set_running_or_notify_cancel():
            item.fail(self._ledger, ShuttingDownError(message))

    def __enter__(self) -> "QueryScheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> ResultCache:
        """The service's result cache (counters, clear())."""
        return self._cache

    @property
    def metrics(self) -> MetricsRegistry:
        """The Prometheus metric families (see :meth:`render_metrics`)."""
        return self._ledger.registry

    @property
    def flight_recorder(self) -> FlightRecorder:
        """Ring buffer of the newest completed traces (``/debug/traces``)."""
        return self._ledger.recorder

    @property
    def slow_log(self) -> SlowQueryLog:
        """Threshold-triggered slow-trace keep (``/debug/slow``)."""
        return self._ledger.slow_log

    @property
    def tracing_enabled(self) -> bool:
        """True unless constructed with ``trace_depth=0``."""
        return self._ledger.recorder.enabled

    def new_trace(
        self,
        route: str,
        traceparent: str | None = None,
        *,
        owned: bool = False,
    ) -> Trace | None:
        """Open a trace for one request, or ``None`` when tracing is off.

        The HTTP front end calls this with ``owned=False`` (it appends
        its own ``respond`` span and calls :meth:`finish_trace` before
        serializing the response); ``owned=True`` asks the scheduler to
        finish the trace itself when the request's future resolves —
        what :meth:`submit_query` does automatically when no trace is
        handed in.  A parseable W3C ``traceparent`` donates the trace
        id; anything else gets a fresh one.
        """
        return self._ledger.new_trace(route, traceparent, owned=owned)

    def finish_trace(self, trace: Trace, status: str = "ok") -> None:
        """Seal a trace and publish it to the recorder + slow log.

        Idempotent; the first call feeds the span durations to the
        ``repro_stage_seconds`` histogram.  The scheduler itself only
        ever finishes traces it *owns*: the HTTP handler still appends
        its ``respond`` span after the future resolves, and a published
        trace is visible to ``/debug`` readers.
        """
        self._ledger.finish_trace(trace, status)

    @property
    def n_items(self) -> int:
        """Live items served."""
        return len(self._db)

    @property
    def generation(self) -> int:
        """The database's current data-version stamp."""
        return self._db.generation

    @property
    def is_closed(self) -> bool:
        """True after :meth:`close` began."""
        return self._admission.closed

    @property
    def uptime_s(self) -> float:
        """Seconds since construction (what ``GET /healthz`` reports)."""
        return self._ledger.uptime_s

    def journal_info(self) -> dict[str, int] | None:
        """Journal state for ``GET /healthz`` (``None`` when off).

        ``records``/``bytes`` count since the last compaction, ``syncs``
        the group fsyncs performed (the count of the ledger's
        ``repro_journal_fsync_seconds`` histogram, which ``on_fsync``
        feeds once per fsync), ``replayed`` the records applied by
        startup recovery.
        """
        if self._journal is None:
            return None
        return {
            "records": self._journal.n_records,
            "bytes": self._journal.size_bytes,
            "syncs": self._ledger.journal_fsync.totals()[0],
            "replayed": self._journal.replayed_records,
        }

    def count_refused(self, reason: str) -> None:
        """Count one refusal made outside admission (the HTTP front
        door's) in ``repro_refused_total``."""
        self._ledger.refused.inc(reason=reason)

    def _live_state(self) -> LiveState:
        """What ``/stats`` and ``/metrics`` read from other components.

        Cache figures come from one locked
        :meth:`~repro.serve.cache.ResultCache.counters` snapshot, so
        neither view can report hits and misses that disagree
        mid-update.
        """
        backend = self._db.backend_info()
        return LiveState(
            queue_depth=self._queue.qsize(),
            items=len(self._db),
            cache=self._cache.counters(),
            journal=self.journal_info(),
            backend=backend["name"],
            pool=backend["pool"],
        )

    def stats(self) -> ServiceStats:
        """A point-in-time :class:`~repro.serve.stats.ServiceStats`.

        A view, not a second set of books: every counter is read from
        the metric families :meth:`render_metrics` renders.
        """
        return self._ledger.stats(self._live_state())

    def render_metrics(self) -> str:
        """The Prometheus text exposition body (``GET /metrics``).

        Hot-path families (request counters, latency and batch-size
        histograms) accumulate as requests flow; values that already
        live elsewhere — queue depth, item count, cache counters — are
        set as gauges at scrape time.
        """
        return self._ledger.render(self._live_state())

    # ------------------------------------------------------------------
    # Submission (the work happens in repro.serve.admission)
    # ------------------------------------------------------------------
    def submit_query(
        self,
        query: Image | np.ndarray,
        k: int = 10,
        *,
        feature: str | None = None,
        trace: Trace | None = None,
    ) -> Future[ServedResult]:
        """Admit a k-NN request; returns a future of :class:`ServedResult`.

        ``trace`` hands in an externally-owned trace (the HTTP front
        end's); left ``None``, the scheduler opens — and finishes — its
        own when tracing is on.
        """
        k = check_count("k", k, 1, QueryError)
        return self._admission.query("knn", query, k, feature, trace)

    def submit_range(
        self,
        query: Image | np.ndarray,
        radius: float,
        *,
        feature: str | None = None,
        trace: Trace | None = None,
    ) -> Future[ServedResult]:
        """Admit a range request; returns a future of :class:`ServedResult`."""
        if not radius >= 0.0:  # NaN fails this too
            raise QueryError(f"radius must be non-negative; got {radius}")
        return self._admission.query("range", query, float(radius), feature, trace)

    def submit_add(
        self,
        signatures: Mapping[str, np.ndarray] | np.ndarray,
        *,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
        trace: Trace | None = None,
    ) -> Future[MutationResult]:
        """Admit an insert of precomputed signatures; future of ids.

        ``signatures`` follows :meth:`ImageDatabase.add_vectors`: a
        ``{feature: (n, d) matrix}`` mapping covering every schema
        feature, or a bare matrix for a single-feature schema.  The
        mutation applies on the worker thread, strictly ordered with
        query batches; validation errors resolve the returned future
        exceptionally and never poison queued queries.
        """
        return self._admission.mutation(
            Mutation("add", signatures, labels, names, trace)
        )

    def submit_remove(
        self,
        image_ids: Sequence[int],
        *,
        trace: Trace | None = None,
    ) -> Future[MutationResult]:
        """Admit a removal by image id; future of the removed ids.

        Serialized with query batches like :meth:`submit_add`; an
        unknown id fails only this future (the database validates every
        id before touching anything).  A batch naming the same id twice
        is rejected here, at admission, with a
        :class:`~repro.errors.ServeError`: the engine's validate-all-
        first remove treats ids as a set, and silently collapsing the
        duplicates would acknowledge a removal the caller described
        twice.  (Adds never carry caller ids — the allocator hands out
        distinct ones — so this check has no add-side counterpart.)
        """
        ids = [int(image_id) for image_id in image_ids]
        if len(set(ids)) != len(ids):
            counts = Counter(ids)
            duplicates = sorted(i for i, count in counts.items() if count > 1)
            raise ServeError(
                f"duplicate image ids in one remove batch: {duplicates}; "
                f"each id may be named once per batch"
            )
        return self._admission.mutation(Mutation("remove", ids, trace=trace))

    def submit_save(
        self, *, trace: Trace | None = None
    ) -> Future[MutationResult]:
        """Admit a snapshot-compaction barrier; future of a save marker.

        Requires a configured journal.  The save rides the queue like a
        mutation: the worker folds everything applied so far into a
        fresh snapshot, flips the manifest, and resets the journal
        (``repro.db.recovery.compact``) — strictly ordered between the
        queries around it, so the snapshot is a point-in-time image.
        Resolves to a :class:`MutationResult` with ``kind='save'``;
        without a journal the future fails with
        :class:`~repro.errors.ServeError`.
        Not rate-limited: compaction is an operator action, not traffic.
        """
        return self._admission.mutation(Mutation("save", None, trace=trace))

    # ------------------------------------------------------------------
    # Worker thread: batch forming + replay
    # ------------------------------------------------------------------
    def _run(self) -> None:
        stop = False
        while not stop:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            if self._abandon:
                # Abandoning close (SIGTERM): fail queued work fast with
                # the distinct shutdown signal instead of serving out a
                # backlog on a terminating process.
                self._fail_shutting_down(
                    item, "scheduler is shutting down; request abandoned"
                )
                continue
            # Yield the GIL once per batch instead of waiting: the HTTP
            # thread answers cache hits and sends finished replies
            # itself, and would otherwise queue behind the engine.
            time.sleep(0)
            item.dequeued = time.monotonic()
            batch = [item]
            # A batch is what is already queued: nobody waits for company.
            while len(batch) < self._max_batch:
                try:
                    more = self._queue.get_nowait()
                except queue.Empty:
                    break
                if more is _SHUTDOWN:
                    stop = True
                    break
                more.dequeued = time.monotonic()
                batch.append(more)
            self._execute(batch)

    def _execute(self, batch: list[Ticket]) -> None:
        """Walk one formed batch in arrival order.

        Each query is one scalar engine call; each mutation is a barrier
        between them — queries admitted before it are answered against
        the pre-mutation database, queries after it against the
        post-mutation one.  Every mutation is its own database call,
        journal record and generation bump; their futures resolve only
        after one *group fsync* at the end of the batch (a save flushes
        them early: its snapshot already makes them durable).  One
        formed batch is one ``repro_batch_size`` sample (queries only),
        which every query's ``ServedResult.batch_size`` reports.
        """
        worker = self._worker
        n_queries = sum(isinstance(item, Request) for item in batch)
        for item in batch:
            if isinstance(item, Request):
                worker.answer(item, n_queries)
            else:
                worker.apply(item)
        worker.ack()
        if n_queries:
            self._ledger.batch_size.observe(n_queries)

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._admission.closed
            else ("running" if self._started else "staged")
        )
        return (
            f"QueryScheduler({state}, max_batch={self._max_batch}, "
            f"items={len(self._db)})"
        )
