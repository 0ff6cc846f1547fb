"""Admission: everything that happens to a request on its caller's thread.

Validate → rate-limit → cache lookup (with check-on-hit revalidation) →
enqueue.  A request that fails any step raises in the caller and never
reaches the queue, so it can never poison a batch; a fresh or
revalidated cache hit resolves its future right here and never reaches
the worker either.  What does get through is a
:class:`~repro.serve.ticket.Ticket` on the bounded queue the worker
drains (``repro.serve.worker``).

:class:`Admission` also owns the *gate* — the closed flag and the lock
that orders every enqueue against shutdown — because that is an
admission decision too: once :meth:`Admission.close` returns, nothing
can land on the queue behind the scheduler's shutdown sentinel.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.db.database import ImageDatabase
from repro.errors import (
    QueryError,
    QueueFullError,
    RateLimitError,
    ServeError,
    ShuttingDownError,
)
from repro.image.core import Image
from repro.serve.cache import MutationDeltaLog, ResultCache, entry_still_valid
from repro.serve.ledger import ServiceLedger
from repro.serve.ticket import Mutation, MutationResult, Request, ServedResult
from repro.serve.trace import Trace

__all__ = ["TokenBucket", "Admission"]


class TokenBucket:
    """Non-blocking token-bucket rate limiter.

    ``rate`` tokens accrue per second up to ``burst``;
    :meth:`try_acquire` takes one token or reports failure immediately
    (admission turns failure into
    :class:`~repro.errors.RateLimitError` — callers back off, they never
    queue behind the limiter).
    """

    def __init__(self, rate: float, burst: float | None = None) -> None:
        if rate <= 0.0:
            raise ServeError(f"rate must be > 0 tokens/s; got {rate}")
        burst = float(burst) if burst is not None else max(1.0, float(rate))
        if burst < 1.0:
            raise ServeError(f"burst must be >= 1 token; got {burst}")
        #: Sustained tokens per second.
        self.rate = float(rate)
        #: Bucket capacity (largest tolerated burst).
        self.burst = burst
        self._tokens = burst
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Take one token if available; never blocks."""
        now = time.monotonic()
        with self._lock:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class Admission:
    """The caller-thread half of the scheduler (see the module docstring).

    Thread-safe: any number of caller threads admit concurrently; the
    only shared mutable state is the limiter, the cache, the ledger's
    families (each locked internally) and the gate lock around the
    queue put.
    """

    def __init__(
        self,
        db: ImageDatabase,
        cache: ResultCache,
        deltas: MutationDeltaLog,
        ledger: ServiceLedger,
        tickets: "queue.Queue",
        limiter: TokenBucket | None,
    ) -> None:
        self._db = db
        self._cache = cache
        self._deltas = deltas
        self._ledger = ledger
        self._tickets = tickets
        self._limiter = limiter
        self._lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran: every submission is refused."""
        return self._closed

    def close(self) -> bool:
        """Refuse everything from now on; False when already closed.

        Taken under the same lock as every enqueue, so once this
        returns the queue's tail is final and the shutdown sentinel can
        be posted behind it.
        """
        with self._lock:
            was_open = not self._closed
            self._closed = True
        return was_open

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        kind: str,
        query: Image | np.ndarray,
        parameter: int | float,
        feature: str | None,
        trace: Trace | None,
    ) -> Future[ServedResult]:
        """Admit one k-NN (``parameter`` = k) or range (= radius) query."""
        self._check_open()
        self._check_rate_limit()
        if len(self._db) == 0:
            raise QueryError("database is empty")
        feature = feature or self._db.default_feature
        if trace is None:
            # A validation failure below just discards the trace — an
            # admitted request is the unit the recorder tracks.
            trace = self._ledger.new_trace(kind, owned=True)
        admit_start = time.monotonic()
        # Extraction/validation happens on the caller's thread: a bad
        # request fails here, loudly, instead of poisoning a batch.
        vector = self._db.extract_query_vector(query, feature)
        started = time.monotonic()
        if trace is not None:
            trace.annotate(feature=feature, parameter=parameter)
            trace.add_span("admit", admit_start, started - admit_start)
        self._ledger.requests.inc(route=kind)

        key = None
        if self._cache.enabled:
            key = self._cache.key(kind, feature, parameter, vector)
        request = Request(kind, feature, parameter, vector, key, trace, started)
        if key is None or not self._lookup(request):
            self._enqueue(request)
        return request.future

    def _lookup(self, request: Request) -> bool:
        """Serve ``request`` from the cache if a valid entry exists.

        The generation check makes the hit safe under mutation: a
        result computed under an older item set is evicted (counted as
        an invalidation) instead of being served.  Before evicting, the
        revalidator gets a chance to prove the entry unchanged from the
        mutation delta log — a confirmed entry is re-stamped and served
        (counted as a revalidation, never as a stale serve).
        """
        lookup_start = time.monotonic()
        kind, feature, parameter = request.kind, request.feature, request.parameter
        generation = self._db.generation(feature)

        def revalidate(stored: int, results: list) -> bool:
            return entry_still_valid(
                self._deltas.between(feature, stored, generation),
                self._db.metric_for(feature),
                kind,
                parameter,
                request.vector,
                results,
            )

        cached = self._cache.get(request.key, generation, revalidator=revalidate)
        trace = request.trace
        if trace is not None:
            trace.add_span(
                "cache-lookup",
                lookup_start,
                time.monotonic() - lookup_start,
                hit=cached is not None,
            )
        if cached is None:
            return False
        if trace is not None:
            trace.annotate(cache_hit=True)
        request.complete(self._ledger, cached, None, 1, True)
        return True

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def mutation(self, mutation: Mutation) -> Future[MutationResult]:
        """Admit one add/remove/save; its queue position serializes it.

        A save is not rate-limited: compaction is an operator action,
        not traffic.
        """
        self._check_open()
        if mutation.kind != "save":
            self._check_rate_limit()
        if mutation.trace is None:
            mutation.trace = self._ledger.new_trace(mutation.kind, owned=True)
        self._ledger.requests.inc(route=mutation.kind)
        self._enqueue(mutation)
        return mutation.future

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ShuttingDownError("scheduler is closed (shutting down)")

    def _check_rate_limit(self) -> None:
        if self._limiter is not None and not self._limiter.try_acquire():
            self._ledger.refused.inc(reason="rate_limited")
            raise RateLimitError(
                f"rate limit exceeded ({self._limiter.rate:g} requests/s, "
                f"burst {self._limiter.burst:g}); back off and retry"
            )

    def _enqueue(self, ticket: Request | Mutation) -> None:
        # The closed-check and the enqueue share the lock close() takes,
        # so a ticket can never land *behind* the shutdown sentinel and
        # strand its future.
        ticket.enqueued = time.monotonic()
        with self._lock:
            self._check_open()
            try:
                self._tickets.put_nowait(ticket)
            except queue.Full:
                self._ledger.refused.inc(reason="queue_full")
                raise QueueFullError(
                    f"admission queue full ({self._tickets.maxsize} requests); "
                    f"retry later or raise max_queue"
                ) from None
