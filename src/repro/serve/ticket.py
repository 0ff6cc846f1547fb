"""Tickets: what rides the admission queue, and what its future resolves to.

A ticket is one admitted request — a query (:class:`Request`) or an
add/remove/save (:class:`Mutation`) — together with everything that
follows it from the caller's thread to the worker: the future, the
clock reads that bound its spans, and its trace.  The queue hand-off is
the happens-before edge that lets the worker append spans to the trace
without a lock.

The three things that happen to every ticket are written once, here:
:meth:`Ticket.dispatch` (the worker picked it up → ``queue-wait`` and
``batch-form`` spans), :meth:`Ticket.fail` and :meth:`Ticket.complete`
(the latency sample, the ``respond`` span, the owned trace, the
future).  Completion is also the only place a request's latency enters
the :class:`~repro.serve.ledger.ServiceLedger` — one increment per
event, whichever route it took.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.db.query import RetrievalResult
from repro.index.stats import SearchStats
from repro.serve.cache import CacheKey
from repro.serve.trace import Trace

if TYPE_CHECKING:
    from repro.serve.ledger import ServiceLedger

__all__ = ["ServedResult", "MutationResult", "Ticket", "Request", "Mutation"]


@dataclass(frozen=True)
class ServedResult:
    """What a request's future resolves to.

    Attributes
    ----------
    results:
        The ranked answers — identical to the matching direct
        ``ImageDatabase.query`` / ``range_query`` call.
    stats:
        This request's exact engine cost counters, the index's
        ``last_stats`` after its own engine call (``None`` on a cache
        hit: no engine work happened).
    batch_size:
        Queries in the formed batch that answered the request — the
        ``repro_batch_size`` sample it was part of (1 on a cache hit).
    cache_hit:
        True when the result came from the LRU cache.
    latency_s:
        Submit-to-resolution wall time.
    trace_id:
        Id of the trace that followed this request through the pipeline
        (the key into ``GET /debug/trace?id=`` and ``repro trace
        --id``); ``None`` when tracing is off (``trace_depth=0``).
    """

    results: list[RetrievalResult]
    stats: SearchStats | None
    batch_size: int
    cache_hit: bool
    latency_s: float
    trace_id: str | None = None


@dataclass(frozen=True)
class MutationResult:
    """What an add/remove request's future resolves to.

    Attributes
    ----------
    kind:
        ``'add'``, ``'remove'``, or ``'save'`` (compaction barrier).
    ids:
        The image ids allocated (add) or removed (remove), in order
        (empty for ``'save'``).
    generation:
        The database's generation *after* the mutation applied — what
        subsequent cached results will be validated against.
    latency_s:
        Submit-to-application wall time.
    trace_id:
        Id of the mutation's trace (``None`` when tracing is off).
    """

    kind: str
    ids: list[int]
    generation: int
    latency_s: float
    trace_id: str | None = None


class Ticket:
    """One admitted request: a future plus the clock reads and trace
    that follow it through the pipeline.

    ``submitted`` starts the latency clock; ``enqueued`` / ``dequeued``
    (stamped by admission and by the worker's batch-forming loop) bound
    the ``queue-wait`` span.  ``result_type`` is the frozen dataclass
    the future resolves to; both end in ``(latency_s, trace_id)``,
    which :meth:`complete` fills in.
    """

    __slots__ = ("kind", "future", "submitted", "trace", "enqueued", "dequeued")

    result_type: type

    def __init__(
        self, kind: str, trace: Trace | None, submitted: float | None = None
    ) -> None:
        self.kind = kind
        self.trace = trace
        self.future: Future = Future()
        self.submitted = time.monotonic() if submitted is None else submitted
        self.enqueued = self.dequeued = self.submitted

    def dispatch(self, now: float) -> None:
        """The worker starts executing this ticket at ``now``.

        Emits the two waiting spans: ``queue-wait`` (enqueue → picked
        off the queue) and ``batch-form`` (picked off → execution
        starts: whatever ran ahead of it in the batch).
        """
        if self.trace is not None:
            self.trace.add_span(
                "queue-wait", self.enqueued, self.dequeued - self.enqueued
            )
            self.trace.add_span("batch-form", self.dequeued, now - self.dequeued)

    def fail(self, ledger: "ServiceLedger", error: BaseException) -> None:
        """Resolve the future exceptionally; only this ticket fails.

        A trace the scheduler owns is finished as ``error`` here; one
        the HTTP handler owns is only annotated — the handler still
        appends its ``respond`` span and publishes it.
        """
        if self.trace is not None:
            self.trace.annotate(error=str(error))
            if self.trace.owned:
                ledger.finish_trace(self.trace, "error")
        self.future.set_exception(error)

    def complete(
        self,
        ledger: "ServiceLedger",
        *outcome: object,
        respond_start: float | None = None,
    ) -> None:
        """Resolve the future with ``result_type(*outcome, latency, trace_id)``.

        The latency sample is observed exactly once, *before* the future
        resolves, so a caller that has its answer can already read it
        back from ``/stats``.  ``respond_start`` opens the owned trace's
        ``respond`` span (``None``: no span — a cache hit resolves on
        the caller's thread with nothing to hand back).
        """
        latency = time.monotonic() - self.submitted
        ledger.completed(self.kind, latency)
        trace = self.trace
        result = self.result_type(
            *outcome, latency, trace.trace_id if trace is not None else None
        )
        if trace is not None and trace.owned:
            if respond_start is not None:
                trace.add_span(
                    "respond", respond_start, time.monotonic() - respond_start
                )
            ledger.finish_trace(trace)
        self.future.set_result(result)


class Request(Ticket):
    """One admitted query riding the queue to the worker."""

    __slots__ = ("feature", "parameter", "vector", "key")

    result_type = ServedResult

    def __init__(
        self,
        kind: str,
        feature: str,
        parameter: int | float,
        vector: np.ndarray,
        key: CacheKey | None,
        trace: Trace | None,
        submitted: float,
    ) -> None:
        super().__init__(kind, trace, submitted)
        self.feature = feature
        self.parameter = parameter
        self.vector = vector
        self.key = key


class Mutation(Ticket):
    """One admitted add/remove/save riding the same queue as the queries.

    Its position in the queue *is* its serialization point: the worker
    applies it between the queries that arrived around it.
    """

    __slots__ = ("payload", "labels", "names")

    result_type = MutationResult

    def __init__(
        self,
        kind: str,
        payload: object,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
        trace: Trace | None = None,
    ) -> None:
        super().__init__(kind, trace)
        self.payload = payload
        self.labels = labels
        self.names = names
