"""Stdlib HTTP front end for the query service: one I/O thread.

A thin JSON shell over :class:`~repro.serve.scheduler.QueryScheduler`
on a ``selectors`` loop, which accepts connections, parses HTTP/1.1
(request line, headers, a ``Content-Length`` body; keep-alive and
pipelined requests answered in order) and writes each response with one
``send`` on a non-blocking ``TCP_NODELAY`` socket.  A ``POST`` enters
through the scheduler's ``submit_*``: a future already done (a cache
hit, a refusal, a validation error) is answered inline; any other gets
a done-callback that queues the completion and wakes the loop through a
socketpair.  The I/O thread never blocks on a future, and an idle or
slow client costs a buffer, not a thread.  A server runs this thread
(the caller's under :meth:`QueryServer.serve_forever`), the scheduler's
worker and the ``cores - 1`` sweep threads of ``repro.db.backend``.

Endpoints (tabled in ``docs/serving.md``): ``POST /query``, ``/range``,
``/add``, ``/remove``, ``/save``; ``GET /healthz``, ``/stats``,
``/metrics``, ``/debug/traces``, ``/debug/trace?id=``, ``/debug/slow``.
Every ``POST`` opens a trace before its body is parsed (an inbound W3C
``traceparent`` donates the id, echoed as ``X-Repro-Trace-Id`` and
``trace_id``), and the trace is sealed, ``respond`` span included,
*before* the response leaves.  ``access_log`` writes one
``http_request`` line per response and one ``http_error`` line per
request refused before routing.  Errors are JSON ``{"error": ...}``
bodies that close their connection: 400 malformed, 404 unknown path,
411 a body without ``Content-Length``, 431 a head over 64 KiB, 429
rate-limited, 503 queue full or (``"shutting_down": true``) draining.
Queries take *signature vectors*, not image files.
"""

from __future__ import annotations

import errno
import json
import selectors
import socket
import threading
import time
import traceback
from collections import deque
from contextlib import suppress
from concurrent.futures import Future
from functools import partial
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.db.database import ImageDatabase
from repro.errors import (
    QueueFullError, RateLimitError, ReproError, ServeError, ShuttingDownError,
)
from repro.serve.logsys import StructuredLog
from repro.serve.metrics import MetricsRegistry
from repro.serve.scheduler import MutationResult, QueryScheduler, ServedResult
from repro.serve.trace import Trace

__all__ = ["QueryServer"]

#: Longest accepted request body (a signature vector is a few KiB).
_MAX_BODY_BYTES = 1 << 20
#: Longest accepted request line + header block.
_MAX_HEAD_BYTES = 1 << 16
#: A connection that has sent nothing for this long is closed; bytes
#: received do not reset the clock, so a slow-loris client is closed too.
_IDLE_TIMEOUT_S = 30.0
#: How long ``stop()`` lets clients take their last responses.
_FLUSH_TIMEOUT_S = 2.0
#: Out of file descriptors, the listener stays readable with nothing
#: to accept: it is unwatched until a connection closes or this passes.
_FD_PAUSE_S = 0.1

#: Refusals: exception type → (HTTP status, body flags beside ``error``,
#: trace status).  Any other :class:`~repro.errors.ReproError` is the
#: client's fault: 400, trace status ``error``.
_REFUSALS: dict[type, tuple[int, dict, str]] = {
    RateLimitError: (429, {}, "rate_limited"),
    ShuttingDownError: (503, {"shutting_down": True}, "shutting_down"),
    QueueFullError: (503, {}, "rejected"),
}
#: POST path → trace route (the scheduler's request kinds).
_ROUTES = {"/query": "knn", "/range": "range", "/add": "add", "/remove": "remove",
           "/save": "save"}


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
    payload: dict = {"generation": applied.generation}
    payload["latency_ms"] = applied.latency_s * 1e3
    if applied.kind == "add":
        payload["ids"] = applied.ids
    elif applied.kind == "remove":
        payload["removed"] = applied.ids
    else:
        payload["saved"] = True
    return payload


def _numbers(values: list) -> bool:
    """JSON numbers only: NumPy would coerce ``"0.5"`` and ``true``."""
    return all(type(value) in (int, float) for value in values)


def _vector_of(payload: dict) -> np.ndarray:
    vector = payload.get("vector")
    if not isinstance(vector, list) or not vector:
        raise ServeError('"vector" must be a non-empty JSON array')
    with suppress(OverflowError):  # an integer past float range
        if _numbers(vector):
            return np.asarray(vector, dtype=np.float64)
    raise ServeError('"vector" must contain only numbers')


def _matrix_of(value: object, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ServeError(f'"{field}" must be a non-empty JSON array of rows')
    try:
        if not all(isinstance(row, list) and _numbers(row) for row in value):
            raise TypeError
        matrix = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ServeError(f'"{field}" must be rectangular rows of numbers') from None
    if matrix.ndim != 2:
        raise ServeError(f'"{field}" must be a 2-D array of rows')
    return matrix


def _add_arguments(payload: dict) -> tuple[dict | np.ndarray, list | None, list | None]:
    """Parse a ``POST /add`` body into ``add_vectors`` arguments."""
    vectors, signatures = payload.get("vectors"), payload.get("signatures")
    if (vectors is None) == (signatures is None):
        raise ServeError('pass exactly one of "vectors" or "signatures"')
    if signatures is not None:
        if not isinstance(signatures, dict) or not signatures:
            raise ServeError('"signatures" must be a {feature: rows} object')
        arg: dict | np.ndarray = {
            name: _matrix_of(rows, f"signatures[{name}]")
            for name, rows in signatures.items()
        }
    else:
        arg = _matrix_of(vectors, "vectors")
    labels, names = payload.get("labels"), payload.get("names")
    for field, value in (("labels", labels), ("names", names)):
        if value is not None and not isinstance(value, list):
            raise ServeError(f'"{field}" must be a JSON array')
    return arg, labels, names


class _Request:
    """One parsed request; ``length`` body bytes follow its head."""

    __slots__ = ("method", "path", "headers", "keep_alive", "declared", "length",
                 "body", "t0")

    def __init__(self, method: str, path: str, headers: dict, keep_alive: bool) -> None:
        self.method, self.path, self.headers = method, path, headers
        self.keep_alive, self.body, self.t0 = keep_alive, b"", 0.0
        try:
            self.declared: int | None = int(headers.get("content-length", "0"))
        except ValueError:
            self.declared = None
        length = self.declared or 0  # bytes to read: a length refused reads none
        self.length = length if 0 < length <= _MAX_BODY_BYTES else 0

    def json(self, *, optional: bool = False) -> dict:
        """The body as a JSON object; any defect is a ServeError.

        ``optional`` accepts an absent body as ``{}`` (``POST /save``
        takes no arguments).
        """
        length = self.declared
        if length is None:
            header = self.headers["content-length"]
            raise ServeError(f"Content-Length is not an integer: {header!r}")
        if length <= 0:
            if optional and length == 0:
                return {}
            raise ServeError("request body is empty")
        if length > _MAX_BODY_BYTES:
            raise ServeError(f"request body exceeds {_MAX_BODY_BYTES} bytes")
        try:
            # JSONDecodeError and UnicodeDecodeError are both ValueErrors.
            payload = json.loads(self.body)
        except ValueError as error:
            raise ServeError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload


class _Connection:
    """One client socket and its buffers; only the I/O thread touches it."""

    __slots__ = ("sock", "inbuf", "out", "head", "busy", "close_after", "closed",
                 "events", "deadline")

    def __init__(self, sock: socket.socket) -> None:
        self.sock, self.inbuf, self.out = sock, bytearray(), bytearray()
        self.head: _Request | None = None  # parsed; its body still arriving
        self.busy = False  # a future is pending: parse and read nothing more
        self.close_after = self.closed = False
        self.events = 0
        self.deadline = time.monotonic() + _IDLE_TIMEOUT_S


class QueryServer:
    """The HTTP query service: scheduler + one-thread JSON front end.

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
        ``max_queue``, ``cache_size``, ``rate_limit_qps``,
        ``trace_depth``, ``slow_query_ms``, ...).
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
        self._scheduler = scheduler or QueryScheduler(
            db, **scheduler_options  # type: ignore[arg-type]
        )
        self._db, self._access_log = db, access_log
        self._listener = socket.create_server((host, port), backlog=128)
        self._address = self._listener.getsockname()[:2]
        self._waker, self._wake_sender = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._waker, self._wake_sender):
            sock.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._waker, selectors.EVENT_READ, self._waker)
        self._conns: set[_Connection] = set()
        #: (connection, request, trace, future) per resolved future,
        #: appended by whichever thread resolved it.
        self._completions: deque = deque()
        self._next_expiry = time.monotonic() + _IDLE_TIMEOUT_S
        #: When the listener, unwatched for want of descriptors, is
        #: watched again (``None`` while it is watched).
        self._resume_at: float | None = None
        self._thread: threading.Thread | None = None
        self._loop_owner: int | None = None  # ident of the thread in the loop
        self._loop_exited = threading.Event()
        self._stop_drain: bool | None = None  # set by stop(); read by the loop
        self._closing = False  # the shutdown steps have begun

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — authoritative when ``port=0``."""
        host, port = self._address
        return str(host), int(port)

    @property
    def scheduler(self) -> QueryScheduler:
        """The underlying micro-batching scheduler."""
        return self._scheduler

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI mode)."""
        self._loop_owner = threading.get_ident()
        try:
            while self._stop_drain is None:
                self._step(max(0.0, self._next_expiry - time.monotonic()))
            if not self._closing:
                self._shutdown(self._stop_drain)
        finally:
            self._loop_owner = None
            self._loop_exited.set()

    def start(self) -> "QueryServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop accepting, close the scheduler, flush, close connections.

        With ``drain`` (the default) every admitted request is served
        before the scheduler closes; ``drain=False`` (the SIGTERM path)
        completes the in-flight batch, journal included, and fails queued
        requests with :class:`~repro.errors.ShuttingDownError` → HTTP
        503.  Completed responses then get up to ``_FLUSH_TIMEOUT_S`` to
        leave.  A loop on another thread runs these steps itself.
        """
        if self._stop_drain is not None:
            return
        self._stop_drain = drain
        owner = self._loop_owner
        if self._thread is not None or owner not in (None, threading.get_ident()):
            self._wake()
            self._loop_exited.wait()
        if not self._closing:
            self._shutdown(drain)

    def _shutdown(self, drain: bool) -> None:
        self._closing = True  # from here every response closes its connection
        if self._resume_at is None:
            self._selector.unregister(self._listener)
        self._listener.close()
        self._scheduler.close(drain=drain)
        for conn in self._conns:
            conn.close_after = True
        self._step(0.0)  # answer what the close resolved
        deadline = time.monotonic() + _FLUSH_TIMEOUT_S
        while any(conn.out for conn in self._conns) and time.monotonic() < deadline:
            self._step(max(0.0, deadline - time.monotonic()))
        for conn in list(self._conns):
            self._close(conn)
        self._selector.close()
        self._waker.close()
        self._wake_sender.close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        host, port = self.address
        state = "serving" if self._stop_drain is None else "stopped"
        return f"QueryServer({state}, http://{host}:{port})"

    def _step(self, timeout: float) -> None:
        for key, mask in self._selector.select(timeout):
            conn = key.data
            if conn is None:
                self._accept()
            elif conn is self._waker:
                self._waker.recv(4096)  # the wake-ups; completions are below
            else:
                try:
                    (self._flush if mask & selectors.EVENT_WRITE else self._read)(conn)
                    self._advance(conn)
                except Exception:  # a bug costs this connection, not the loop
                    traceback.print_exc()
                    self._close(conn)
        while self._completions:
            conn, request, trace, future = self._completions.popleft()
            conn.busy = False
            try:
                self._answer(conn, request, trace, future)
                self._advance(conn)
            except Exception:  # a bug costs this connection, not the loop
                traceback.print_exc()
                self._close(conn)
        now = time.monotonic()
        if self._resume_at is not None and now >= self._resume_at:
            self._resume()
        if now >= self._next_expiry:
            self._next_expiry = now + _IDLE_TIMEOUT_S
            for conn in [c for c in self._conns if not c.busy]:
                if conn.deadline <= now:
                    self._close(conn)
                else:
                    self._next_expiry = min(self._next_expiry, conn.deadline)
            if self._resume_at is not None:
                self._next_expiry = min(self._next_expiry, self._resume_at)

    def _wake(self) -> None:
        with suppress(OSError):  # full (a wake-up is pending anyway) or closed
            self._wake_sender.send(b"\0")

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError as error:
            if error.errno in (errno.EMFILE, errno.ENFILE):
                # The pending connection stays queued and the listener
                # readable: watching it now would spin the loop.
                self._scheduler.count_refused("fds")
                self._selector.unregister(self._listener)
                self._resume_at = time.monotonic() + _FD_PAUSE_S
                self._next_expiry = min(self._next_expiry, self._resume_at)
            return  # else BlockingIOError: the client gave up already
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        self._conns.add(conn)
        self._watch(conn)

    def _watch(self, conn: _Connection) -> None:
        """Wait on what the connection needs next: write, read, or nothing."""
        events = (selectors.EVENT_WRITE if conn.out
                  else 0 if conn.busy else selectors.EVENT_READ)
        if conn.closed or events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.discard(conn)
        if conn.events:
            self._selector.unregister(conn.sock)
        with suppress(OSError):  # the peer may be gone already
            conn.sock.shutdown(socket.SHUT_WR)
        conn.sock.close()
        self._resume()  # a descriptor is free again

    def _resume(self) -> None:
        """Watch the listener again after an fd-exhaustion pause."""
        if self._resume_at is not None and not self._closing:
            self._resume_at = None
            self._selector.register(self._listener, selectors.EVENT_READ, None)

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:  # reset by the peer: nothing to answer
            data = b""
        if not data:
            self._close(conn)
        conn.inbuf += data

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:  # the client left before its answer (or was closed)
            self._close(conn)
            return
        if sent:
            del conn.out[:sent]
            conn.deadline = time.monotonic() + _IDLE_TIMEOUT_S
        if not conn.out and conn.close_after:
            self._close(conn)
        else:
            self._watch(conn)

    def _advance(self, conn: _Connection) -> None:
        """Answer the buffered requests, one at a time, in order."""
        while not (conn.busy or conn.out or conn.closed):
            request = self._parse(conn)
            if request is None:
                break
            request.t0 = time.monotonic()
            if request.method == "GET":
                self._get(conn, request)
            elif request.method == "POST":
                self._post(conn, request)
            else:
                error = {"error": f"unsupported method {request.method!r}"}
                self._send_json(conn, request, 501, error)
        self._watch(conn)

    def _parse(self, conn: _Connection) -> _Request | None:
        """The next complete request in ``conn.inbuf``, or ``None``."""
        buf, request = conn.inbuf, conn.head
        if request is None:
            end = buf.find(b"\r\n\r\n", 0, _MAX_HEAD_BYTES + 4)
            if end < 0:
                if len(buf) > _MAX_HEAD_BYTES:
                    self._reject(conn, 431, "request head too long")
                return None
            line, *lines = buf[:end].decode("latin-1").split("\r\n")
            del buf[: end + 4]
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
                return self._reject(conn, 400, f"malformed request line {line!r}")
            headers = {}
            for line in lines:
                name, colon, value = line.partition(":")
                if not colon:
                    return self._reject(conn, 400, f"malformed header line {line!r}")
                headers[name.strip().lower()] = value.strip()
            if "transfer-encoding" in headers:
                return self._reject(conn, 411, "send the body with a Content-Length")
            connection = headers.get("connection", "").lower()
            http10 = parts[2] == "HTTP/1.0"
            keep_alive = connection == "keep-alive" if http10 else connection != "close"
            request = _Request(parts[0], parts[1], headers, keep_alive)
            if headers.get("expect", "").lower() == "100-continue" and (
                len(buf) < request.length
            ):
                conn.out += b"HTTP/1.1 100 Continue\r\n\r\n"
                self._flush(conn)
        if len(buf) < request.length:
            conn.head = request
            return None
        conn.head, request.body = None, bytes(buf[: request.length])
        del buf[: request.length]
        return request

    def _respond(self, conn: _Connection, request: _Request | None, status: int,
                 body: bytes, content_type: str = "application/json",
                 trace_id: str | None = None) -> None:
        """Status line, headers and body in one buffer: one ``send``.

        An error path may not have read the body: it closes, never
        desyncs.  So does a request refused before it was framed (None).
        """
        head = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if trace_id is not None:
            head.append(f"X-Repro-Trace-Id: {trace_id}")
        if request is None or status >= 400 or not request.keep_alive or self._closing:
            head.append("Connection: close")
            conn.close_after = True
        conn.deadline = time.monotonic() + _IDLE_TIMEOUT_S
        conn.out += ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        self._flush(conn)
        if request is not None and self._access_log is not None:
            latency_ms = round((time.monotonic() - request.t0) * 1e3, 3)
            self._access_log.event(
                "http_request", method=request.method, path=request.path,
                status=status, latency_ms=latency_ms, trace_id=trace_id,
            )

    def _reject(self, conn: _Connection, status: int, message: str) -> None:
        """Refuse a request that cannot be framed, and close."""
        if self._access_log is not None:
            self._access_log.event("http_error", status=status, message=message)
        self._respond(conn, None, status, json.dumps({"error": message}).encode())

    def _send_json(self, conn: _Connection, request: _Request, status: int,
                   payload: dict, trace: Trace | None = None,
                   trace_status: str | None = None) -> None:
        """Serialize + send; seals ``trace`` (its ``respond`` span covers
        serialization) *before* the bytes go out, so a client holding the
        response can ``GET /debug/trace?id=`` without racing the recorder.
        """
        trace_id = None
        if trace is not None:
            trace_id = trace.trace_id
            payload = {**payload, "trace_id": trace_id}
            respond_start = time.monotonic()
        body = json.dumps(payload).encode("utf-8")
        if trace is not None:
            trace.add_span("respond", respond_start, time.monotonic() - respond_start)
            self._scheduler.finish_trace(
                trace, trace_status or ("ok" if status < 400 else "error")
            )
        self._respond(conn, request, status, body, trace_id=trace_id)

    def _get(self, conn: _Connection, request: _Request) -> None:
        scheduler, parsed = self._scheduler, urlsplit(request.path)
        if parsed.path == "/metrics":
            body = scheduler.render_metrics().encode("utf-8")
            self._respond(conn, request, 200, body, MetricsRegistry.CONTENT_TYPE)
            return
        status = 200
        if parsed.path == "/healthz":
            info = scheduler.journal_info()
            payload = {
                "status": "ok", "images": scheduler.n_items,
                "features": list(self._db.schema.names),
                "generation": scheduler.generation, "uptime_s": scheduler.uptime_s,
                "durable": info is not None, "journal": info,
                "backend": self._db.backend_info()["name"],
            }
        elif parsed.path == "/stats":
            payload = scheduler.stats().to_dict()
        elif parsed.path == "/debug/traces":
            recorder = scheduler.flight_recorder
            payload = {
                "enabled": recorder.enabled, "depth": recorder.depth,
                "recorded": recorder.recorded,
                "traces": [trace.summary() for trace in recorder.traces()],
            }
        elif parsed.path == "/debug/trace":
            trace_id = (parse_qs(parsed.query).get("id") or [None])[0]
            found = scheduler.flight_recorder.find(trace_id) if trace_id else None
            if not trace_id:
                status, payload = 400, {"error": "pass the trace id as ?id=<trace_id>"}
            elif found is None:
                status, payload = 404, {
                    "error": f"no retained trace with id {trace_id!r} "
                    "(it may have fallen off the ring; see /debug/traces)"
                }
            else:
                payload = found.to_dict()
        elif parsed.path == "/debug/slow":
            slow = scheduler.slow_log
            threshold = slow.threshold_s
            payload = {
                "threshold_ms": threshold * 1e3 if threshold is not None else None,
                "captured": slow.captured,
                "traces": [trace.to_dict() for trace in slow.traces()],
            }
        else:
            status, payload = 404, {"error": f"unknown path {request.path!r}"}
        self._send_json(conn, request, status, payload)

    def _post(self, conn: _Connection, request: _Request) -> None:
        route = _ROUTES.get(request.path)
        if route is None:
            error = {"error": f"unknown path {request.path!r}"}
            self._send_json(conn, request, 404, error)
            return
        # The trace opens before any parsing so even a malformed request
        # leaves a finished trace in the recorder; an inbound W3C
        # traceparent donates the id (None when tracing is off).
        trace = self._scheduler.new_trace(route, request.headers.get("traceparent"))
        try:
            future = self._submit(request, trace)
        except ReproError as error:
            future = Future()
            future.set_exception(error)
        if future.done():  # a cache hit, a refusal or a malformed request
            self._answer(conn, request, trace, future)
        else:
            conn.busy = True
            future.add_done_callback(partial(self._completed, conn, request, trace))

    def _completed(self, conn: _Connection, request: _Request, trace: Trace | None,
                   future: Future) -> None:
        """Done-callback, on whichever thread resolved the future."""
        self._completions.append((conn, request, trace, future))
        self._wake()

    def _answer(self, conn: _Connection, request: _Request, trace: Trace | None,
                future: Future) -> None:
        try:
            served = future.result()
        except ReproError as error:
            # Refused, malformed, failed on the worker or abandoned by a
            # drain=False close: one mapping decides the status.
            status, flags, trace_status = next(
                (reply for kind, reply in _REFUSALS.items() if isinstance(error, kind)),
                (400, {}, "error"),
            )
            payload = {"error": str(error), **flags}
        else:
            status, trace_status = 200, None
            mutation = isinstance(served, MutationResult)
            payload = (_mutation_payload if mutation else _result_payload)(served)
        self._send_json(conn, request, status, payload, trace, trace_status)

    def _submit(self, request: _Request, trace: Trace | None) -> Future:
        """Parse this request's body and hand it to the scheduler."""
        scheduler = self._scheduler
        if request.path == "/save":
            request.json(optional=True)
            return scheduler.submit_save(trace=trace)
        payload = request.json()
        if request.path == "/add":
            rows, labels, names = _add_arguments(payload)
            return scheduler.submit_add(rows, labels=labels, names=names, trace=trace)
        if request.path == "/remove":
            ids = payload.get("ids")
            if not isinstance(ids, list) or not ids or any(
                    type(i) is not int for i in ids):
                raise ServeError('"ids" must be a non-empty array of integers')
            return scheduler.submit_remove(ids, trace=trace)
        vector = _vector_of(payload)
        feature = payload.get("feature")
        if feature is not None and not isinstance(feature, str):
            raise ServeError('"feature" must be a string')
        if request.path == "/query":
            k = payload.get("k", 10)
            if not isinstance(k, int) or isinstance(k, bool):
                raise ServeError('"k" must be an integer')
            return scheduler.submit_query(vector, k, feature=feature, trace=trace)
        radius = payload.get("radius")
        if not isinstance(radius, (int, float)) or isinstance(radius, bool):
            raise ServeError('"radius" must be a number')
        return scheduler.submit_range(
            vector, float(radius), feature=feature, trace=trace)
