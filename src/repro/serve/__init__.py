"""Concurrent query serving with micro-batch coalescing.

The paper's system is an *online* image database — many users querying
at interactive rates — while the library's batched engine (PR 1/2) only
shines when a single caller hands it a pre-assembled query matrix.
This package is the bridge: a serving layer that turns concurrent
independent requests into the large batches the kernels are fast at.

The database may mutate while it serves: ``submit_add`` /
``submit_remove`` (HTTP: ``POST /add`` / ``POST /remove``) ride the
same admission queue as queries and apply on the worker thread as
barriers between query segments, and cached results are stamped with
per-feature generations so a mutation invalidates exactly the entries
it staled — lazily, never a global flush (``docs/mutability.md``).
One :class:`~repro.db.database.ImageDatabase` answers every request.

================================  =======================================
Component                          Role
================================  =======================================
:class:`QueryScheduler`            bounded admission queue + batch-forming
                                   worker; groups requests by (kind,
                                   feature, parameter) and answers each
                                   group with one batched engine call;
                                   results are bit-identical to direct
                                   ``ImageDatabase`` queries; mutations
                                   serialize with query batches; optional
                                   token-bucket rate limiting at admission
:class:`TokenBucket`               non-blocking rate limiter behind
                                   ``rate_limit_qps`` (empty bucket →
                                   :class:`~repro.errors.RateLimitError`,
                                   HTTP 429)
:class:`MutationResult`            what an add/remove future resolves to
                                   (ids, post-mutation generations)
:class:`ResultCache`               LRU over finished result lists, keyed
                                   by a quantized signature digest and
                                   stamped with the generation each entry
                                   was computed under
:class:`MetricsRegistry`           Prometheus metric families: per-route
                                   latency histograms (log-spaced
                                   buckets), admission counters, queue
                                   depth and item-count gauges, plus
                                   a text-exposition parser/validator —
                                   the one store every serving event is
                                   counted in (``repro.serve.ledger``)
:class:`ServiceStats`              snapshot *view* over those families:
                                   throughput, formed-batch sizes, cache
                                   hit rate, mutations, item count,
                                   plus windowed p50/p95 latency
:class:`Trace` / :class:`Span`     one request's journey: a trace id
                                   (W3C ``traceparent`` in,
                                   ``X-Repro-Trace-Id`` out) and one
                                   span per pipeline stage, the engine
                                   span carrying the request's exact
                                   distance-computation count
:class:`FlightRecorder`            bounded ring of the newest completed
                                   traces (``GET /debug/traces``,
                                   ``GET /debug/trace?id=``)
:class:`SlowQueryLog`              threshold-triggered keep of slow
                                   traces (``GET /debug/slow``) that
                                   fast traffic cannot flush
:class:`StructuredLog`             sampled, rate-limited JSON-lines
                                   event sink behind
                                   ``serve --access-log``
:class:`QueryServer`               stdlib ``http.server`` JSON front end
                                   (``POST /query``, ``POST /range``,
                                   ``POST /add``, ``POST /remove``,
                                   ``POST /save``, ``GET /stats``,
                                   ``GET /metrics``, ``GET /healthz``,
                                   ``GET /debug/*``)
:class:`ServiceClient`             urllib JSON client for the above
================================  =======================================

**Durability.**  Constructed with a
:class:`~repro.db.journal.Journal` (CLI: ``serve --journal DIR``),
the scheduler writes every mutation to a checksummed write-ahead log
before its future resolves — one group fsync per formed batch — so an
acknowledged write survives kill -9; startup replays the log onto the
last atomic snapshot and ``POST /save`` compacts online.  See
``docs/durability.md``.

**Observability.**  Three surfaces, three audiences, one set of books:
``GET /stats`` is the human snapshot and ``GET /metrics`` the
Prometheus scrape (per-stage ``repro_stage_seconds`` histograms and
process gauges included) of the same ledger, and
``GET /debug/traces`` / ``/debug/trace?id=`` / ``/debug/slow`` the
forensic layer — per-request traces with one span per pipeline stage,
pretty-printed by ``repro trace``.  See ``docs/observability.md``.

``python -m repro serve --db my.db`` starts the HTTP service
over a saved database; ``examples/serve_demo.py`` drives the whole
stack — including a live add/remove round trip — in-process.  Design
notes and knob semantics: ``docs/serving.md``; mutation protocol:
``docs/mutability.md``.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer
from repro.serve.logsys import StructuredLog
from repro.serve.metrics import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    LatencyHistogram,
    MetricsRegistry,
    parse_exposition,
    read_process_stats,
    validate_exposition,
)
from repro.serve.scheduler import (
    MutationResult,
    QueryScheduler,
    ServedResult,
    TokenBucket,
)
from repro.serve.stats import ServiceStats
from repro.serve.trace import (
    FlightRecorder,
    SlowQueryLog,
    Span,
    Trace,
    format_trace,
    parse_traceparent,
)

__all__ = [
    "QueryScheduler",
    "ServedResult",
    "MutationResult",
    "TokenBucket",
    "ResultCache",
    "ServiceStats",
    "MetricsRegistry",
    "LatencyHistogram",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "parse_exposition",
    "validate_exposition",
    "read_process_stats",
    "Trace",
    "Span",
    "FlightRecorder",
    "SlowQueryLog",
    "parse_traceparent",
    "format_trace",
    "StructuredLog",
    "QueryServer",
    "ServiceClient",
]
