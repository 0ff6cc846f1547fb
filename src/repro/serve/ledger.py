"""The service's one ledger: every serving event is counted here, once.

:class:`ServiceLedger` owns the :class:`~repro.serve.metrics.MetricsRegistry`
and its families, the bounded latency window, and the two trace sinks.
Admission and the worker increment a family at the event; ``GET
/metrics`` renders the registry and ``GET /stats`` is a *view* computed
from the same families (:meth:`ServiceLedger.stats`), so the two
surfaces cannot disagree.  Which family backs which ``/stats`` field is
tabulated in ``docs/serving.md``.

State that already lives elsewhere — queue depth, item count, cache
counters, journal and buffer-pool figures — is never copied on the hot
path: the scheduler reads it once into a :class:`LiveState` and both
views take it from there.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from repro.serve.cache import CacheCounters
from repro.serve.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    read_process_stats,
)
from repro.serve.stats import LatencyWindow, ServiceStats
from repro.serve.trace import FlightRecorder, SlowQueryLog, Trace

__all__ = ["LiveState", "ServiceLedger"]

#: Routes whose completions count as ``completed`` and feed the latency
#: window; add/remove completions are ``mutations``, save's ``saves``.
QUERY_ROUTES = ("knn", "range")
MUTATION_ROUTES = ("add", "remove")


class LiveState(NamedTuple):
    """Point-in-time state owned by other components, read once per view."""

    queue_depth: int
    items: int
    cache: CacheCounters
    #: ``QueryScheduler.journal_info()`` (``None`` when journaling is off).
    journal: dict[str, int] | None
    backend: str
    #: Buffer-pool figures: hits/misses/evictions/resident/capacity.
    pool: dict[str, int]


class ServiceLedger:
    """Metric families + latency window + trace sinks for one scheduler.

    Parameters
    ----------
    trace_depth:
        Flight-recorder capacity; ``0`` turns tracing off.
    slow_query_ms:
        Slow-query-log threshold (``None`` disables the slow log).
    """

    def __init__(self, trace_depth: int, slow_query_ms: float | None) -> None:
        self._started = time.monotonic()
        self.window = LatencyWindow()
        self.recorder = FlightRecorder(trace_depth)
        self.slow_log = SlowQueryLog(
            threshold_s=None if slow_query_ms is None else slow_query_ms / 1e3
        )
        registry = self.registry = MetricsRegistry()
        self.requests = registry.counter(
            "repro_requests_total",
            "Requests admitted, by route (knn/range/add/remove).",
            ("route",),
        )
        self.refused = registry.counter(
            "repro_refused_total",
            "Requests refused, by reason (queue_full/rate_limited at "
            "admission; fds: a connection left unaccepted for want of a "
            "file descriptor).",
            ("reason",),
        )
        self.latency = registry.histogram(
            "repro_request_latency_seconds",
            "Submit-to-result latency, by route.",
            ("route",),
        )
        self.batch_size = registry.histogram(
            "repro_batch_size",
            "Requests per formed micro-batch (queries only).",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._g_queue_depth = registry.gauge(
            "repro_queue_depth", "Requests waiting in the admission queue."
        )
        self._g_items = registry.gauge("repro_items", "Live items served.")
        self._g_cache = registry.gauge(
            "repro_cache_lookups",
            "Result-cache counters by outcome "
            "(hit/miss/invalidated/revalidated).",
            ("outcome",),
        )
        self._g_journal = registry.gauge(
            "repro_journal",
            "Write-ahead journal state (records/bytes/syncs since the "
            "last compaction; replayed = records applied at startup "
            "recovery).  Absent families read 0 when journaling is off.",
            ("figure",),
        )
        self._g_backend_pool = registry.gauge(
            "repro_backend_pool",
            "Vector-backend buffer-pool state "
            "(hits/misses/evictions/resident/capacity pages).  All 0 on "
            "the unbounded in-memory backend — see docs/storage.md.",
            ("figure",),
        )
        self.journal_fsync = registry.histogram(
            "repro_journal_fsync_seconds",
            "Wall time of journal group-commit fsyncs.",
        )
        self._stage = registry.histogram(
            "repro_stage_seconds",
            "Wall time per traced pipeline stage (admit, cache-lookup, "
            "queue-wait, batch-form, engine, merge, journal-append, "
            "journal-fsync, apply, respond, compact).  Populated only "
            "while tracing is on (trace_depth > 0).",
            ("stage",),
        )
        self._g_process = registry.gauge(
            "repro_process",
            "Process-level health at scrape time "
            "(rss_bytes / open_fds / threads).",
            ("figure",),
        )
        self._g_gc = registry.gauge(
            "repro_process_gc_collections",
            "Cumulative CPython garbage collections, per GC generation.",
            ("generation",),
        )

    @property
    def uptime_s(self) -> float:
        """Seconds since the scheduler was constructed."""
        return time.monotonic() - self._started

    # ------------------------------------------------------------------
    # Events with more than one consequence
    # ------------------------------------------------------------------
    def new_trace(
        self, route: str, traceparent: str | None = None, *, owned: bool = False
    ) -> Trace | None:
        """Open a trace for one request, or ``None`` when tracing is off."""
        if not self.recorder.enabled:
            return None
        return Trace(route, traceparent=traceparent, owned=owned)

    def finish_trace(self, trace: Trace, status: str = "ok") -> None:
        """Seal a trace and publish it to the recorder + slow log.

        Idempotent (the underlying :meth:`Trace.finish` is): only the
        first call records; span durations feed the
        ``repro_stage_seconds`` histogram then.
        """
        if trace.finish(status):
            for span in trace.spans:
                self._stage.observe(span.duration_s, stage=span.stage)
            self.recorder.record(trace)
            self.slow_log.offer(trace)

    def completed(self, route: str, latency_s: float) -> None:
        """One request finished: its only latency sample, on any route."""
        self.latency.observe(latency_s, route=route)
        if route in QUERY_ROUTES:
            self.window.observe(latency_s)

    # ------------------------------------------------------------------
    # The two views
    # ------------------------------------------------------------------
    def _finished(self, routes: tuple[str, ...]) -> int:
        return sum(self.latency.totals(route=route)[0] for route in routes)

    def stats(self, live: LiveState) -> ServiceStats:
        """The ``GET /stats`` snapshot, computed from the families."""
        uptime = self.uptime_s
        completed = self._finished(QUERY_ROUTES)
        batches, batched = self.batch_size.totals()
        window = self.window.figures()
        journal = live.journal or {}
        return ServiceStats(
            uptime_s=uptime,
            submitted=self.requests.total(),
            completed=completed,
            rejected=self.refused.value(reason="queue_full"),
            queue_depth=live.queue_depth,
            batches_formed=batches,
            mean_batch_size=batched / batches if batches else 0.0,
            mutations=self._finished(MUTATION_ROUTES),
            cache_hits=live.cache.hits,
            cache_misses=live.cache.misses,
            cache_hit_rate=live.cache.hit_rate,
            cache_invalidations=live.cache.invalidations,
            throughput_qps=completed / uptime if uptime > 0.0 else 0.0,
            recent_qps=window.recent_qps,
            latency_mean_ms=window.mean_ms,
            latency_p50_ms=window.p50_ms,
            latency_p95_ms=window.p95_ms,
            rate_limited=self.refused.value(reason="rate_limited"),
            saves=self._finished(("save",)),
            journaled=live.journal is not None,
            journal_records=journal.get("records", 0),
            journal_syncs=journal.get("syncs", 0),
            journal_replayed=journal.get("replayed", 0),
            cache_revalidations=live.cache.revalidations,
            backend=live.backend,
            pool_hits=live.pool["hits"],
            pool_misses=live.pool["misses"],
            pool_evictions=live.pool["evictions"],
            pool_resident=live.pool["resident"],
            pool_capacity=live.pool["capacity"],
        )

    def render(self, live: LiveState) -> str:
        """The Prometheus text exposition body (``GET /metrics``).

        Hot-path families accumulated as requests flowed; the values in
        ``live`` and the process figures are set as gauges here, at
        scrape time.
        """
        self._g_queue_depth.set(live.queue_depth)
        self._g_items.set(live.items)
        outcomes = ("hit", "miss", "invalidated", "revalidated")
        for outcome, count in zip(outcomes, live.cache):
            self._g_cache.set(count, outcome=outcome)
        for figure, value in (live.journal or {}).items():
            self._g_journal.set(value, figure=figure)
        for figure, value in live.pool.items():
            self._g_backend_pool.set(value, figure=figure)
        process = read_process_stats()
        for figure in ("rss_bytes", "open_fds", "threads"):
            self._g_process.set(process[figure], figure=figure)
        for generation, count in enumerate(process["gc_collections"]):
            self._g_gc.set(count, generation=str(generation))
        return self.registry.render()
