"""End-to-end request tracing: spans, flight recorder, slow-query log.

The paper's cost model is exact — distance computations per query — and
``/stats`` / ``/metrics`` aggregate faithfully, but aggregates cannot
answer the forensic question *"why was THIS request slow?"*.  This
module gives every request a **trace**: an id (accepted from an inbound
W3C ``traceparent`` header or generated fresh, echoed back as
``X-Repro-Trace-Id``) plus one :class:`Span` per pipeline stage —
``admit``, ``cache-lookup``, ``queue-wait``, ``batch-form``, ``engine``
(carrying the exact ``SearchStats.distance_computations`` for this
query), ``journal-append`` / ``journal-fsync`` on the write path, and
``respond``.

Hot-path cost is O(1) per stage: a span is one ``time.monotonic()``
read and one list append; completing a trace is one bounded-deque
append.  No locks are taken while a trace is *open* — a trace is only
ever touched by one thread at a time (the submitting thread hands it to
the worker through the admission queue, which is the happens-before
edge; the HTTP handler touches it again only after the request's future
resolves).

Completed traces land in two bounded sinks:

* :class:`FlightRecorder` — a ring buffer of the most recent traces
  (default depth 256).  Old traces fall off the back; the recorder
  never grows.  Served raw by ``GET /debug/traces`` and
  ``GET /debug/trace?id=``.
* :class:`SlowQueryLog` — traces whose end-to-end latency crossed a
  threshold (default 100 ms) are *also* kept here, so a burst of fast
  traffic cannot flush the evidence of the one slow request out of the
  ring.  Served by ``GET /debug/slow``.

Both sinks store plain :class:`Trace` objects; :meth:`Trace.to_dict`
is the wire form and :func:`format_trace` renders a human waterfall
(the ``repro trace`` CLI subcommand).

Span-sum sanity: stages are recorded back-to-back on a single worker,
so the span durations sum to within the trace's end-to-end latency; the gap that remains *is* the
untraced residue (queue hand-off, future wake-up), and the acceptance
test pins it.  See ``docs/observability.md``.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import deque
from typing import Iterator

__all__ = [
    "Span",
    "Trace",
    "FlightRecorder",
    "SlowQueryLog",
    "parse_traceparent",
    "format_trace",
]

#: W3C trace-context ``traceparent``: version-traceid-parentid-flags.
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """Parse a W3C ``traceparent`` header into ``(trace_id, parent_id)``.

    Returns ``None`` for a missing or malformed header (the caller then
    generates a fresh id — a bad header must never fail a request), or
    for the all-zero trace id the spec declares invalid.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, parent_id = match.group(1), match.group(2), match.group(3)
    if version == "ff" or trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id, parent_id


def _new_trace_id() -> str:
    """A fresh 16-byte trace id, hex-encoded (W3C width)."""
    return os.urandom(16).hex()


class Span:
    """One timed pipeline stage inside a trace.

    ``start`` is an absolute ``time.monotonic()`` timestamp — the trace
    knows its own start, so offsets fall out at render time, and spans
    recorded on different threads stay on one clock.  ``annotations``
    carries stage-specific facts: the engine span carries
    ``distance_computations``.
    """

    __slots__ = ("stage", "start", "duration_s", "annotations")

    def __init__(
        self,
        stage: str,
        start: float,
        duration_s: float,
        annotations: dict | None = None,
    ) -> None:
        self.stage = stage
        self.start = start
        self.duration_s = duration_s
        self.annotations = annotations

    def to_dict(self, trace_start: float) -> dict:
        """Wire form, with the offset made relative to the trace start."""
        payload = {
            "stage": self.stage,
            "offset_ms": (self.start - trace_start) * 1e3,
            "duration_ms": self.duration_s * 1e3,
        }
        if self.annotations:
            payload.update(self.annotations)
        return payload

    def __repr__(self) -> str:
        extra = f", {self.annotations}" if self.annotations else ""
        return f"Span({self.stage!r}, {self.duration_s * 1e3:.3f}ms{extra})"


class Trace:
    """One request's journey through the serving pipeline.

    Parameters
    ----------
    route:
        The request kind (``knn`` / ``range`` / ``add`` / ``remove`` /
        ``save``).
    traceparent:
        Optional inbound W3C ``traceparent`` header; a parseable header
        donates its trace id (and records the caller's span id as
        ``parent_id``), anything else gets a fresh id.
    owned:
        True when the scheduler created the trace internally and must
        finish it when the request's future resolves; False when an
        outer layer (the HTTP handler) owns completion and will add its
        own ``respond`` span first.

    A trace is deliberately lock-free: exactly one thread appends spans
    at any moment (see module docstring), and the sinks only see it
    after :meth:`finish` — which is idempotent, so a scheduler-side
    error path and an HTTP-side completion can race benignly.
    """

    __slots__ = (
        "trace_id",
        "parent_id",
        "route",
        "owned",
        "started",
        "started_unix",
        "spans",
        "status",
        "latency_s",
        "annotations",
        "_finished",
    )

    def __init__(
        self,
        route: str,
        *,
        traceparent: str | None = None,
        owned: bool = False,
    ) -> None:
        parsed = parse_traceparent(traceparent)
        if parsed is not None:
            self.trace_id, self.parent_id = parsed
        else:
            self.trace_id, self.parent_id = _new_trace_id(), None
        self.route = route
        self.owned = owned
        self.started = time.monotonic()
        self.started_unix = time.time()
        self.spans: list[Span] = []
        self.status = "pending"
        self.latency_s = 0.0
        self.annotations: dict = {}
        self._finished = False

    def add_span(
        self,
        stage: str,
        start: float,
        duration_s: float,
        **annotations: object,
    ) -> None:
        """Record one stage: O(1), no locks, negative durations clamped
        (clock reads on different threads can disagree by a tick)."""
        self.spans.append(
            Span(stage, start, max(0.0, duration_s), annotations or None)
        )

    def annotate(self, **fields: object) -> None:
        """Attach trace-level facts (feature, k, cache_hit, ...)."""
        self.annotations.update(fields)

    def finish(self, status: str = "ok") -> bool:
        """Seal the trace: stamp status + end-to-end latency.

        Returns True the first time (the caller should then publish the
        trace to the recorder); idempotent afterwards so double-finish
        on error paths is harmless.
        """
        if self._finished:
            return False
        self._finished = True
        self.status = status
        self.latency_s = time.monotonic() - self.started
        return True

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` sealed the trace."""
        return self._finished

    def stage_names(self) -> list[str]:
        """The span stages in recording order (duplicates preserved)."""
        return [span.stage for span in self.spans]

    def to_dict(self) -> dict:
        """The wire form served by ``GET /debug/trace?id=``."""
        payload = {
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "route": self.route,
            "status": self.status,
            "started_unix": self.started_unix,
            "latency_ms": self.latency_s * 1e3,
            "spans": [span.to_dict(self.started) for span in self.spans],
        }
        if self.annotations:
            payload.update(self.annotations)
        return payload

    def summary(self) -> dict:
        """The compact form listed by ``GET /debug/traces``."""
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "status": self.status,
            "started_unix": self.started_unix,
            "latency_ms": self.latency_s * 1e3,
            "n_spans": len(self.spans),
        }

    def __repr__(self) -> str:
        return (
            f"Trace({self.trace_id[:8]}…, {self.route}, {self.status}, "
            f"{len(self.spans)} spans, {self.latency_s * 1e3:.2f}ms)"
        )


class FlightRecorder:
    """Bounded ring buffer of the most recent completed traces.

    ``depth`` caps memory exactly: the ring holds at most ``depth``
    traces and :meth:`record` is an O(1) deque append (the deque evicts
    the oldest itself).  ``depth=0`` disables recording entirely —
    :meth:`record` becomes a no-op, which is the tracing-off
    configuration the overhead benchmark compares against.
    """

    def __init__(self, depth: int = 256) -> None:
        if depth < 0:
            raise ValueError(f"recorder depth must be >= 0; got {depth}")
        self._depth = int(depth)
        self._ring: deque[Trace] = deque(maxlen=max(1, self._depth))
        self._recorded = 0
        self._lock = threading.Lock()

    @property
    def depth(self) -> int:
        """Maximum retained traces (0 = recording disabled)."""
        return self._depth

    @property
    def enabled(self) -> bool:
        """False when constructed with ``depth=0``."""
        return self._depth > 0

    @property
    def recorded(self) -> int:
        """Traces ever recorded (monotonic; the ring holds the tail)."""
        return self._recorded

    def __len__(self) -> int:
        return len(self._ring) if self.enabled else 0

    def record(self, trace: Trace) -> None:
        """Append one completed trace (evicting the oldest when full)."""
        if not self.enabled:
            return
        with self._lock:
            self._ring.append(trace)
            self._recorded += 1

    def traces(self) -> list[Trace]:
        """The retained traces, newest first."""
        with self._lock:
            return list(reversed(self._ring))

    def find(self, trace_id: str) -> Trace | None:
        """The newest retained trace with this id, or ``None``.

        Linear over the ring — the depth is small and bounded, and a
        dict index would have to mirror the deque's evictions for no
        measurable win at forensic lookup rates.
        """
        with self._lock:
            for trace in reversed(self._ring):
                if trace.trace_id == trace_id:
                    return trace
        return None

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces())

    def __repr__(self) -> str:
        return f"FlightRecorder({len(self)}/{self._depth}, recorded={self._recorded})"


class SlowQueryLog:
    """Threshold-triggered keep of slow traces, separate from the ring.

    The flight recorder answers "what happened recently"; this log
    answers "what happened *slowly*" — a trace whose end-to-end latency
    reached ``threshold_s`` is retained here even after fast traffic
    has cycled it out of the ring.  Bounded like the recorder
    (``depth`` newest slow traces); ``threshold_s=None`` disables the
    log (nothing is ever offered in).
    """

    def __init__(self, threshold_s: float | None = 0.1, depth: int = 128) -> None:
        if threshold_s is not None and threshold_s < 0.0:
            raise ValueError(f"slow threshold must be >= 0; got {threshold_s}")
        if depth < 1:
            raise ValueError(f"slow-log depth must be >= 1; got {depth}")
        self._threshold_s = threshold_s
        self._ring: deque[Trace] = deque(maxlen=int(depth))
        self._captured = 0
        self._lock = threading.Lock()

    @property
    def threshold_s(self) -> float | None:
        """Latency at/above which a trace is captured (None = off)."""
        return self._threshold_s

    @property
    def captured(self) -> int:
        """Slow traces ever captured (monotonic)."""
        return self._captured

    def __len__(self) -> int:
        return len(self._ring)

    def offer(self, trace: Trace) -> bool:
        """Capture the trace if it crossed the threshold; True if kept."""
        if self._threshold_s is None or trace.latency_s < self._threshold_s:
            return False
        with self._lock:
            self._ring.append(trace)
            self._captured += 1
        return True

    def traces(self) -> list[Trace]:
        """The retained slow traces, newest first."""
        with self._lock:
            return list(reversed(self._ring))

    def __repr__(self) -> str:
        threshold = (
            f"{self._threshold_s * 1e3:g}ms" if self._threshold_s is not None else "off"
        )
        return f"SlowQueryLog(>{threshold}, {len(self)} kept, captured={self._captured})"


# ---------------------------------------------------------------------------
# Pretty printing (repro trace, examples/serve_demo.py)
# ---------------------------------------------------------------------------
def format_trace(trace: dict, *, width: int = 28) -> str:
    """Render one wire-form trace (:meth:`Trace.to_dict`) as a waterfall.

    Works on the *dict* form so the CLI can render traces fetched over
    HTTP without reconstructing objects.  Each span gets a bar placed at
    its offset and scaled to its share of the end-to-end latency::

        trace 4bf92f35…  route=knn  status=ok  latency=3.21 ms
          admit          0.00ms  0.05ms |#          |
          queue-wait     0.05ms  1.40ms | ####      |
          engine         1.50ms  1.50ms |     ##### | dist=123
    """
    latency_ms = float(trace.get("latency_ms", 0.0))
    header = (
        f"trace {trace.get('trace_id', '?')}  route={trace.get('route', '?')}  "
        f"status={trace.get('status', '?')}  latency={latency_ms:.2f} ms"
    )
    if trace.get("parent_id"):
        header += f"  parent={trace['parent_id']}"
    lines = [header]
    spans = trace.get("spans", [])
    if not spans:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    stage_width = max(len(str(span.get("stage", ""))) for span in spans)
    for span in spans:
        offset = float(span.get("offset_ms", 0.0))
        duration = float(span.get("duration_ms", 0.0))
        if latency_ms > 0.0:
            left = int(width * max(0.0, min(1.0, offset / latency_ms)))
            length = max(1, int(width * min(1.0, duration / latency_ms)))
            left = min(left, width - 1)
            length = min(length, width - left)
        else:
            left, length = 0, 1
        bar = " " * left + "#" * length + " " * (width - left - length)
        extras = " ".join(
            f"{key}={value}"
            for key, value in span.items()
            if key not in ("stage", "offset_ms", "duration_ms")
        )
        lines.append(
            f"  {str(span.get('stage', '')):<{stage_width}}  "
            f"{offset:8.2f}ms  {duration:8.2f}ms |{bar}|"
            + (f" {extras}" if extras else "")
        )
    return "\n".join(lines)
