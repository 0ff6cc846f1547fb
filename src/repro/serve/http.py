"""Stdlib HTTP front end for the query service.

A thin JSON shell over :class:`~repro.serve.scheduler.QueryScheduler`,
built on ``http.server.ThreadingHTTPServer`` — one handler thread per
connection, all of them funnelling into the scheduler's admission
queue, which is exactly the concurrency micro-batching feeds on.  No
framework, no new dependencies: the 1994 system would have been a
socket server too.

Endpoints
---------
``POST /query``
    ``{"vector": [...], "k": 5, "feature": "name"}`` → k-NN results.
``POST /range``
    ``{"vector": [...], "radius": 0.5, "feature": "name"}`` → range
    results.
``POST /add``
    ``{"vectors": [[...], ...], "labels": [...], "names": [...]}``
    (single-feature schema) or ``{"signatures": {feature: [[...]]}}``
    (every schema feature) → allocated ids + new generation stamps.
    The insert serializes with query batches on the scheduler's worker.
``POST /remove``
    ``{"ids": [...]}`` → removed ids + new generation stamps.
``POST /save``
    ``{}`` → snapshot-compaction barrier: the worker folds the journal
    into a fresh atomic snapshot and resets the logs (400 with an
    explanatory error when the service runs without a journal).
``GET /stats``
    The :class:`~repro.serve.stats.ServiceStats` snapshot as JSON
    (shard count, per-shard sizes and request balance included).
``GET /metrics``
    Prometheus text exposition: per-route latency histograms,
    admission counters, batch-size histograms, queue depth, per-shard
    balance gauges (see ``repro.serve.metrics``).
``GET /healthz``
    Liveness: item count, feature list, generations, shard count,
    uptime, storage backend.
``GET /debug/traces``
    Compact summaries of the flight recorder's retained traces (newest
    first) — the forensic ring buffer behind ``repro trace``.
``GET /debug/trace?id=<trace_id>``
    One full trace: per-stage spans with offsets, durations, and the
    engine spans' exact per-shard distance-computation counts.
``GET /debug/slow``
    Full traces whose end-to-end latency crossed the scheduler's
    ``slow_query_ms`` threshold.

**Tracing.**  Every ``POST`` request opens a
:class:`~repro.serve.trace.Trace` (when the scheduler runs with
``trace_depth > 0``): an inbound W3C ``traceparent`` header donates the
trace id, otherwise one is generated; the id is echoed back as
``X-Repro-Trace-Id`` and in the JSON body's ``trace_id``, and is the
key into ``GET /debug/trace?id=``.  The handler owns trace completion:
it appends the ``respond`` span (response serialization) and seals the
trace *before* writing the response bytes, so a client that sees the
response can immediately fetch its trace.

**Access log.**  ``QueryServer(access_log=...)`` (CLI:
``repro serve --access-log``) attaches a
:class:`~repro.serve.logsys.StructuredLog`: one ``http_request`` JSON
line per handled request (method, path, status, latency, trace id),
sampled and rate-limited so logging survives hot loops — replacing the
blanket ``log_message`` silencer this front end used to ship.

Query responses carry the ranked results plus the request's serving
metadata (cache hit, group batch size, exact distance-computation
count).  Errors map to JSON bodies with appropriate status codes: 400
for malformed requests, 404 for unknown paths, 503 when the admission
queue is full or the service is shutting down (the latter flagged with
``"shutting_down": true`` so load balancers can distinguish drain from
overload), 429 when the token-bucket rate limiter refuses the request
(throttled, not overloaded — back off and retry).

Queries take *signature vectors*, not image files — feature extraction
is client-side (or via the library), keeping the wire format tiny and
the server CPU for search.  See ``docs/serving.md``.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.db.database import ImageDatabase
from repro.errors import (
    QueueFullError,
    RateLimitError,
    ReproError,
    ServeError,
    ShuttingDownError,
)
from repro.serve.logsys import StructuredLog
from repro.serve.metrics import MetricsRegistry
from repro.serve.scheduler import MutationResult, QueryScheduler, ServedResult
from repro.serve.trace import Trace

__all__ = ["QueryServer"]

#: Longest accepted request body (a signature vector is a few KiB).
_MAX_BODY_BYTES = 1 << 20

#: Refusals: exception type → (HTTP status, body flags beside ``error``,
#: trace status).  Any other :class:`~repro.errors.ReproError` is the
#: client's fault: 400, trace status ``error``.
_REFUSALS: dict[type, tuple[int, dict, str]] = {
    RateLimitError: (429, {}, "rate_limited"),
    ShuttingDownError: (503, {"shutting_down": True}, "shutting_down"),
    QueueFullError: (503, {}, "rejected"),
}


def _result_payload(served: ServedResult) -> dict:
    """JSON form of one served request."""
    return {
        "results": [
            {
                "image_id": result.image_id,
                "distance": result.distance,
                "name": result.record.name if result.record else None,
                "label": result.record.label if result.record else None,
            }
            for result in served.results
        ],
        "cache_hit": served.cache_hit,
        "batch_size": served.batch_size,
        "distance_computations": (
            served.stats.distance_computations if served.stats else 0
        ),
        "latency_ms": served.latency_s * 1e3,
    }


def _mutation_payload(applied: MutationResult) -> dict:
    """JSON form of one applied mutation (or save barrier)."""
    payload = {
        "generations": applied.generations,
        "latency_ms": applied.latency_s * 1e3,
    }
    if applied.kind == "add":
        payload["ids"] = applied.ids
    elif applied.kind == "remove":
        payload["removed"] = applied.ids
    else:
        payload["saved"] = True
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the attached scheduler."""

    protocol_version = "HTTP/1.1"
    #: Idle keep-alive connections expire instead of pinning a thread.
    timeout = 30
    #: Headers and body leave in one write: ``wfile`` is buffered and
    #: the base class flushes it once per request.  Sent as two small
    #: segments, the body sat behind Nagle until the client's delayed
    #: ACK of the headers — ~44 ms per request on a keep-alive
    #: connection.  A body over the buffer size (a long ``/metrics``)
    #: takes a second write, which TCP_NODELAY sends without that wait.
    wbufsize = 1 << 16
    disable_nagle_algorithm = True
    server: "_Server"
    #: Stamped at the top of each do_* call; feeds the access log.
    _t0: float = 0.0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_request(self, code: object = "-", size: object = "-") -> None:
        """No apache-style lines; the structured access log is richer."""

    def log_error(self, format: str, *args: object) -> None:
        """Handler-level notices become structured events (when logging)."""
        log = self.server.access_log
        if log is not None:
            log.event("http_error", message=format % args)

    def log_message(self, format: str, *args: object) -> None:
        """Base-class catch-all, routed with the errors."""
        self.log_error(format, *args)

    def _log_access(self, status: int, trace_id: str | None = None) -> None:
        log = self.server.access_log
        if log is not None:
            log.event(
                "http_request",
                method=self.command,
                path=self.path,
                status=status,
                latency_ms=round((time.monotonic() - self._t0) * 1e3, 3),
                trace_id=trace_id,
            )

    def _send_json(
        self,
        status: int,
        payload: dict,
        *,
        trace: Trace | None = None,
        trace_status: str | None = None,
    ) -> None:
        """Serialize + send; seals ``trace`` first when one is attached.

        The trace's ``respond`` span covers serialization, and the
        trace is finished (published to the flight recorder) *before*
        the response bytes go out — a client that has the response can
        immediately ``GET /debug/trace?id=`` without racing the
        recorder.
        """
        if trace is not None:
            payload = {**payload, "trace_id": trace.trace_id}
            respond_start = time.monotonic()
        body = json.dumps(payload).encode("utf-8")
        if trace is not None:
            trace.add_span(
                "respond", respond_start, time.monotonic() - respond_start
            )
            self.server.scheduler.finish_trace(
                trace, trace_status or ("ok" if status < 400 else "error")
            )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if trace is not None:
            self.send_header("X-Repro-Trace-Id", trace.trace_id)
        if status >= 400:
            # Error paths may not have read the request body; leftover
            # bytes would desync a keep-alive connection, so drop it.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)
        self._log_access(status, trace.trace_id if trace is not None else None)

    def _send_error(self, error: ReproError, trace: Trace | None) -> None:
        """Map a refused or failed request onto its status + JSON body."""
        status, flags, trace_status = next(
            (reply for kind, reply in _REFUSALS.items() if isinstance(error, kind)),
            (400, {}, "error"),
        )
        self._send_json(
            status, {"error": str(error), **flags}, trace=trace, trace_status=trace_status
        )

    def _read_json(self, *, optional: bool = False) -> dict:
        """The request body as a JSON object; any defect is a ServeError.

        ``optional`` accepts an absent body as ``{}`` (``POST /save``
        takes no arguments, but a body that *is* sent is still read so
        a keep-alive connection stays in sync).
        """
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            raise ServeError(f"Content-Length is not an integer: {header!r}") from None
        if length <= 0:
            if optional and length == 0:
                return {}
            raise ServeError("request body is empty")
        if length > _MAX_BODY_BYTES:
            raise ServeError(f"request body exceeds {_MAX_BODY_BYTES} bytes")
        try:
            # JSONDecodeError and (for a non-UTF-8 body) UnicodeDecodeError
            # are both ValueErrors.
            payload = json.loads(self.rfile.read(length))
        except ValueError as error:
            raise ServeError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    @staticmethod
    def _vector_of(payload: dict) -> np.ndarray:
        vector = payload.get("vector")
        if not isinstance(vector, list) or not vector:
            raise ServeError('"vector" must be a non-empty JSON array')
        try:
            return np.asarray(vector, dtype=np.float64)
        except (TypeError, ValueError):
            raise ServeError('"vector" must contain only numbers') from None

    @staticmethod
    def _matrix_of(value: object, field: str) -> np.ndarray:
        if not isinstance(value, list) or not value:
            raise ServeError(f'"{field}" must be a non-empty JSON array of rows')
        try:
            matrix = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            raise ServeError(
                f'"{field}" must be rectangular rows of numbers'
            ) from None
        if matrix.ndim != 2:
            raise ServeError(f'"{field}" must be a 2-D array of rows')
        return matrix

    @classmethod
    def _add_arguments(cls, payload: dict) -> tuple[object, list | None, list | None]:
        """Parse a ``POST /add`` body into ``add_vectors`` arguments."""
        vectors = payload.get("vectors")
        signatures = payload.get("signatures")
        if (vectors is None) == (signatures is None):
            raise ServeError('pass exactly one of "vectors" or "signatures"')
        if signatures is not None:
            if not isinstance(signatures, dict) or not signatures:
                raise ServeError('"signatures" must be a {feature: rows} object')
            arg: object = {
                name: cls._matrix_of(rows, f"signatures[{name}]")
                for name, rows in signatures.items()
            }
        else:
            arg = cls._matrix_of(vectors, "vectors")
        labels = payload.get("labels")
        names = payload.get("names")
        for field, value in (("labels", labels), ("names", names)):
            if value is not None and not isinstance(value, list):
                raise ServeError(f'"{field}" must be a JSON array')
        return arg, labels, names

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._t0 = time.monotonic()
        scheduler = self.server.scheduler
        parsed = urlsplit(self.path)
        path = parsed.path
        if path == "/healthz":
            # Liveness reads go through the scheduler, not the source
            # database object: with shards > 1 the engine owns the live
            # item set and the construction-time database goes stale.
            generations = {
                feature: (
                    list(stamp) if isinstance(stamp, tuple) else stamp
                )
                for feature, stamp in scheduler.generations().items()
            }
            info = scheduler.journal_info()
            self._send_json(
                200,
                {
                    "status": "ok",
                    "images": scheduler.n_items,
                    "features": list(self.server.db.schema.names),
                    "generations": generations,
                    "shards": scheduler.n_shards,
                    "uptime_s": scheduler.uptime_s,
                    "durable": info is not None,
                    "journal": info,
                    "backend": self.server.db.backend_info()["name"],
                },
            )
        elif path == "/stats":
            self._send_json(200, scheduler.stats().to_dict())
        elif path == "/metrics":
            body = scheduler.render_metrics().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", MetricsRegistry.CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self._log_access(200)
        elif path == "/debug/traces":
            recorder = scheduler.flight_recorder
            self._send_json(
                200,
                {
                    "enabled": recorder.enabled,
                    "depth": recorder.depth,
                    "recorded": recorder.recorded,
                    "traces": [trace.summary() for trace in recorder.traces()],
                },
            )
        elif path == "/debug/trace":
            values = parse_qs(parsed.query).get("id")
            trace_id = values[0] if values else None
            if not trace_id:
                self._send_json(
                    400, {"error": "pass the trace id as ?id=<trace_id>"}
                )
                return
            found = scheduler.flight_recorder.find(trace_id)
            if found is None:
                self._send_json(
                    404,
                    {
                        "error": f"no retained trace with id {trace_id!r} "
                        "(it may have fallen off the ring; see /debug/traces)"
                    },
                )
                return
            self._send_json(200, found.to_dict())
        elif path == "/debug/slow":
            slow = scheduler.slow_log
            threshold = slow.threshold_s
            self._send_json(
                200,
                {
                    "threshold_ms": (
                        threshold * 1e3 if threshold is not None else None
                    ),
                    "captured": slow.captured,
                    "traces": [trace.to_dict() for trace in slow.traces()],
                },
            )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    #: POST path → trace route (the scheduler's request kinds).
    _ROUTES = {
        "/query": "knn",
        "/range": "range",
        "/add": "add",
        "/remove": "remove",
        "/save": "save",
    }

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._t0 = time.monotonic()
        route = self._ROUTES.get(self.path)
        if route is None:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        scheduler = self.server.scheduler
        # The trace opens before any parsing so even a malformed request
        # leaves a finished trace in the recorder; an inbound W3C
        # traceparent donates the id (None when tracing is off).
        trace = scheduler.new_trace(route, self.headers.get("traceparent"))
        try:
            served = self._submit(trace).result()
        except ReproError as error:
            # Refused at admission, malformed, or failed on the worker
            # (including abandoned mid-shutdown by a drain=False close):
            # one mapping decides the status.
            self._send_error(error, trace)
            return
        if isinstance(served, MutationResult):
            self._send_json(200, _mutation_payload(served), trace=trace)
        else:
            self._send_json(200, _result_payload(served), trace=trace)

    def _submit(self, trace: Trace | None) -> Future:
        """Parse this request's body and hand it to the scheduler."""
        scheduler = self.server.scheduler
        if self.path == "/save":
            self._read_json(optional=True)
            return scheduler.submit_save(trace=trace)
        payload = self._read_json()
        if self.path == "/add":
            signatures, labels, names = self._add_arguments(payload)
            return scheduler.submit_add(
                signatures,  # type: ignore[arg-type]
                labels=labels,
                names=names,
                trace=trace,
            )
        if self.path == "/remove":
            ids = payload.get("ids")
            if (
                not isinstance(ids, list)
                or not ids
                or not all(
                    isinstance(i, int) and not isinstance(i, bool) for i in ids
                )
            ):
                raise ServeError('"ids" must be a non-empty array of integers')
            return scheduler.submit_remove(ids, trace=trace)
        vector = self._vector_of(payload)
        feature = payload.get("feature")
        if feature is not None and not isinstance(feature, str):
            raise ServeError('"feature" must be a string')
        if self.path == "/query":
            k = payload.get("k", 10)
            if not isinstance(k, int) or isinstance(k, bool):
                raise ServeError('"k" must be an integer')
            return scheduler.submit_query(vector, k, feature=feature, trace=trace)
        radius = payload.get("radius")
        if not isinstance(radius, (int, float)) or isinstance(radius, bool):
            raise ServeError('"radius" must be a number')
        return scheduler.submit_range(
            vector, float(radius), feature=feature, trace=trace
        )


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the scheduler/database references."""

    daemon_threads = True
    #: Don't join handler threads on close: a client holding a
    #: keep-alive connection open would stall shutdown otherwise.
    block_on_close = False
    scheduler: QueryScheduler
    db: ImageDatabase
    access_log: StructuredLog | None = None


class QueryServer:
    """The HTTP query service: scheduler + threaded JSON front end.

    Parameters
    ----------
    db:
        The database to serve.  ``POST /add`` / ``POST /remove`` mutate
        it while serving (serialized with query batches on the
        scheduler's worker); cached results are generation-stamped so a
        stale entry is never returned.
    host, port:
        Bind address; ``port=0`` picks a free ephemeral port —
        :attr:`address` reports the real one.
    scheduler:
        A preconfigured :class:`QueryScheduler`; when omitted one is
        built from the remaining keyword arguments (``max_batch``,
        ``max_wait_ms``, ``max_queue``, ``cache_size``, ``shards``,
        ``rate_limit_qps``, ``trace_depth``, ``slow_query_ms``, ...).
    access_log:
        Optional :class:`~repro.serve.logsys.StructuredLog`: one
        ``http_request`` JSON line per handled request (method, path,
        status, latency, trace id), sampled + rate-limited.  ``None``
        (the default) keeps request logging off.

    Examples
    --------
    >>> from repro.features.base import PresetSignature
    >>> from repro.features.pipeline import FeatureSchema
    >>> import numpy as np
    >>> db = ImageDatabase(FeatureSchema([PresetSignature(4)]))
    >>> _ = db.add_vectors(np.random.default_rng(0).random((32, 4)))
    >>> server = QueryServer(db, port=0).start()
    >>> host, port = server.address
    >>> server.stop()
    """

    def __init__(
        self,
        db: ImageDatabase,
        *,
        host: str = "127.0.0.1",
        port: int = 8753,
        scheduler: QueryScheduler | None = None,
        access_log: StructuredLog | None = None,
        **scheduler_options: object,
    ) -> None:
        if scheduler is not None and scheduler_options:
            raise ServeError(
                "pass either a prebuilt scheduler or scheduler options, not both"
            )
        self._scheduler = scheduler or QueryScheduler(db, **scheduler_options)  # type: ignore[arg-type]
        self._http = _Server((host, port), _Handler)
        self._http.scheduler = self._scheduler
        self._http.db = db
        self._http.access_log = access_log
        self._thread: threading.Thread | None = None
        self._serving = False
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — authoritative when ``port=0``."""
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def scheduler(self) -> QueryScheduler:
        """The underlying micro-batching scheduler."""
        return self._scheduler

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI mode)."""
        self._serving = True
        self._http.serve_forever(poll_interval=0.1)

    def start(self) -> "QueryServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is None:
            self._serving = True  # the thread will reach serve_forever
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the HTTP loop, close the socket, settle the scheduler.

        With ``drain`` (the default) every admitted request is still
        served before the scheduler closes.  ``drain=False`` is the
        SIGTERM path: the in-flight batch completes (and its mutations
        reach the journal — an acknowledged write is never abandoned),
        but queued requests fail fast with
        :class:`~repro.errors.ShuttingDownError` → HTTP 503 instead of
        holding the terminating process on a backlog.
        """
        if self._stopped:
            return
        self._stopped = True
        # shutdown() waits on an event only serve_forever manages — it
        # would block forever on a server that never served.
        if self._serving:
            self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._scheduler.close(drain=drain)

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        host, port = self.address
        state = "stopped" if self._stopped else "serving"
        return f"QueryServer({state}, http://{host}:{port})"
