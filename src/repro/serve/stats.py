"""Service-level metrics: throughput, latency percentiles, batch shapes.

The index layer already accounts for the paper's cost unit (distance
computations, per query, exactly); the serving layer adds the *online*
axes a production operator watches: request throughput, end-to-end
latency percentiles, how large the coalesced batches actually form, and
how often the result cache short-circuits the engine.

:class:`ServiceStats` is the immutable snapshot handed to callers (and
serialized by the HTTP front end's ``GET /stats``).  It is a *view*:
every counter in it is read from the
:class:`~repro.serve.ledger.ServiceLedger`'s metric families — the same
numbers ``GET /metrics`` renders — and nothing is counted twice.  The
one thing a Prometheus family cannot express lives here as
:class:`LatencyWindow`: nearest-rank latency percentiles and a current
QPS over a bounded window of the most recent query completions, so a
long-running service reports current — not lifetime-averaged —
behaviour.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import NamedTuple

__all__ = ["ServiceStats", "LatencyWindow"]


def _nearest_rank(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending sample (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(quantile * len(sorted_values))))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class ServiceStats:
    """One immutable snapshot of the service's behaviour.

    Attributes
    ----------
    uptime_s:
        Seconds since the scheduler started.
    submitted, completed, rejected:
        Requests admitted, finished (cache hits included), and refused
        at admission (queue full).
    queue_depth:
        Requests waiting in the admission queue at snapshot time.
    batches_formed:
        Coalesced batches the worker has executed.
    mean_batch_size:
        Mean size of formed batches (requests per worker wake-up) — the
        coalescing figure of merit.
    mean_group_size:
        Mean *request* count of the per-(kind, feature, parameter)
        groups a formed batch splits into.  Each group is one
        ``query_batch`` / ``range_query_batch`` call, but the call
        carries one row per *distinct* vector — group size minus that
        group's dedup hits (see :attr:`dedup_hits` and
        ``ServedResult.batch_size``, which reports the deduped
        engine-call size).
    dedup_hits:
        Requests answered by another identical request *in the same
        formed batch*: the group's engine call evaluated their shared
        vector once and fanned the (bit-identical) results out to every
        duplicate's future.
    mutations:
        Add/remove requests the worker has applied (failed mutations —
        e.g. removing an unknown id — are not counted; their futures
        carry the error instead).
    saves:
        Snapshot compactions the worker has completed (``POST /save``
        barriers that succeeded).
    journaled:
        True when the scheduler runs with a write-ahead journal — every
        acknowledged mutation is durable (see ``docs/durability.md``).
    journal_records, journal_syncs:
        Records appended since the last compaction and group fsyncs
        performed (both 0 when journaling is off).
    journal_replayed:
        Records replayed from the journal at startup recovery.
    cache_hits, cache_misses, cache_hit_rate:
        Result-cache counters (misses equal engine executions).
    cache_invalidations:
        Cached entries evicted because their generation stamp no longer
        matched the database — the count of *prevented* stale answers.
        Every invalidation is also a miss, so hits + misses still
        partition the lookups.
    cache_revalidations:
        Stale-stamped entries the check-on-hit revalidator proved still
        valid (every inserted item provably outside the cached result,
        no result id removed) — re-stamped and served as hits instead
        of evicted.  Disjoint from :attr:`cache_invalidations`; every
        revalidation is also a hit.
    coalesced_mutations:
        Mutations that shared another mutation's engine barrier: the
        worker collapses adjacent same-kind add/remove runs into one
        ``insert_batch``/``remove`` call (one journal group record, one
        generation bump), and each run of length ``n`` counts ``n - 1``
        here — the barriers saved.
    throughput_qps:
        Completed requests per second of **uptime** — a *lifetime*
        average.  It converges to the long-run rate and barely moves
        with current load; use :attr:`recent_qps` to see what the
        service is doing *now*.
    recent_qps:
        Completed requests per second over the **recent completion
        window** (the same bounded window the latency percentiles use,
        newest ~2048 completions), measured from the window's oldest
        completion to snapshot time.  This is the windowed counterpart
        to the windowed latencies: after a traffic burst ends it decays
        toward zero while :attr:`throughput_qps` keeps averaging the
        burst over the whole uptime.  0.0 before any completion.
    latency_mean_ms, latency_p50_ms, latency_p95_ms:
        Submit-to-result latency over the recent completion window
        (windowed, like :attr:`recent_qps`; *not* lifetime).
    rate_limited:
        Requests refused at admission because the token bucket was
        empty (a subset of neither :attr:`submitted` nor
        :attr:`rejected` — throttling is its own refusal class, HTTP
        429 instead of 503).
    backend:
        Name of the vector storage backend the database serves from
        (``"memory"`` or ``"mmap"`` — see ``docs/storage.md``).
    pool_hits, pool_misses, pool_evictions:
        Buffer-pool counters aggregated over the backend's open stores
        (all 0 for the unbounded in-memory backend).
    pool_resident, pool_capacity:
        Pages currently resident in the buffer pool vs. the configured
        cap — the bounded-memory guarantee, observable.
    """

    uptime_s: float
    submitted: int
    completed: int
    rejected: int
    queue_depth: int
    batches_formed: int
    mean_batch_size: float
    mean_group_size: float
    dedup_hits: int
    mutations: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    cache_invalidations: int
    throughput_qps: float
    recent_qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    rate_limited: int = 0
    saves: int = 0
    journaled: bool = False
    journal_records: int = 0
    journal_syncs: int = 0
    journal_replayed: int = 0
    cache_revalidations: int = 0
    coalesced_mutations: int = 0
    backend: str = "memory"
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0
    pool_resident: int = 0
    pool_capacity: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON round-trippable) for the HTTP front end."""
        return asdict(self)


class WindowFigures(NamedTuple):
    """What :meth:`LatencyWindow.figures` reports (milliseconds, 1/s)."""

    mean_ms: float
    p50_ms: float
    p95_ms: float
    recent_qps: float


class LatencyWindow:
    """The newest ``window`` query completions: latency and finish time.

    Bounded memory whatever the uptime; thread-safe (cache hits complete
    on caller threads, everything else on the worker).
    """

    def __init__(self, window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"latency window must be >= 1; got {window}")
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=window)
        self._completion_times: deque[float] = deque(maxlen=window)

    def observe(self, latency_s: float) -> None:
        """Record one completion that finished now."""
        with self._lock:
            self._latencies.append(latency_s)
            self._completion_times.append(time.monotonic())

    def figures(self) -> WindowFigures:
        """Mean and nearest-rank p50/p95 latency plus windowed QPS.

        QPS is the window's completions divided by the span from its
        oldest completion to *now* — idle time since the last completion
        decays the figure, the way an operator expects a "current QPS"
        to behave.  All zeros before the first completion.
        """
        with self._lock:
            ordered = sorted(self._latencies)
            span = (
                time.monotonic() - self._completion_times[0] if ordered else 0.0
            )
        return WindowFigures(
            mean_ms=1e3 * sum(ordered) / len(ordered) if ordered else 0.0,
            p50_ms=1e3 * _nearest_rank(ordered, 0.50),
            p95_ms=1e3 * _nearest_rank(ordered, 0.95),
            recent_qps=len(ordered) / span if span > 0.0 else 0.0,
        )
