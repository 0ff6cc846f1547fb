"""Structured JSON event logging: sampled, rate-limited, one line per event.

The HTTP front end used to silence per-request logging outright —
``http.server``'s default apache-style lines are unparseable noise at
service rates, and printing them unconditionally would melt a hot
serve loop.  This module is the replacement: an opt-in
:class:`StructuredLog` that emits **one JSON object per line** (the
format every log shipper ingests natively), with two independent
pressure valves so logging can stay on in production:

* **sampling** — ``sample_every=N`` keeps 1 in N events
  (deterministic round-robin, not random, so a test can predict which
  events survive);
* **rate limiting** — at most ``rate_limit_per_s`` emitted events per
  wall-clock second (fixed one-second windows, O(1) per event).  Events
  dropped by the limiter are *counted*, and the next emitted line
  carries ``"dropped": n`` so the gap is visible in the stream instead
  of silent.

The HTTP layer (``repro serve --access-log``) feeds it one
``http_request`` event per handled request — method, path, status,
latency, and the request's trace id, which is the join key into
``GET /debug/trace?id=`` — plus one ``http_error`` event per request
refused before routing (a malformed request line, an over-long head).

Everything is stdlib, thread-safe, and O(1) per event; an event that
loses the sample/rate race costs one lock acquisition and two integer
updates.  See ``docs/observability.md``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import IO

from repro.errors import ServeError

__all__ = ["StructuredLog"]


class StructuredLog:
    """Thread-safe JSON-lines event sink with sampling + rate limiting.

    Parameters
    ----------
    stream:
        Where lines go (default ``sys.stderr``).  Anything with
        ``write``/``flush``; a test hands in ``io.StringIO``.
    sample_every:
        Keep 1 event in N (default 1 = keep everything).  Applied
        before rate limiting, so the limiter budget is spent on the
        events sampling already chose.
    rate_limit_per_s:
        Maximum emitted events per wall-clock second (default 200);
        ``None`` disables limiting.  Excess events are dropped and
        counted; the next emitted line reports the gap.
    clock:
        Injectable time source (tests); defaults to ``time.time``.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        *,
        sample_every: int = 1,
        rate_limit_per_s: float | None = 200.0,
        clock=time.time,
    ) -> None:
        if sample_every < 1:
            raise ServeError(f"sample_every must be >= 1; got {sample_every}")
        if rate_limit_per_s is not None and rate_limit_per_s <= 0.0:
            raise ServeError(
                f"rate_limit_per_s must be > 0 or None; got {rate_limit_per_s}"
            )
        self._stream = stream if stream is not None else sys.stderr
        self._sample_every = int(sample_every)
        self._rate_limit = rate_limit_per_s
        self._clock = clock
        self._lock = threading.Lock()
        self._seen = 0
        self._emitted = 0
        self._sampled_out = 0
        self._rate_dropped = 0
        self._dropped_unreported = 0
        self._window_start = 0.0
        self._window_count = 0

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Lines actually written."""
        return self._emitted

    @property
    def sampled_out(self) -> int:
        """Events skipped by 1-in-N sampling."""
        return self._sampled_out

    @property
    def rate_dropped(self) -> int:
        """Events dropped because the per-second budget was spent."""
        return self._rate_dropped

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def event(self, name: str, *, force: bool = False, **fields: object) -> bool:
        """Emit one event line; returns True when a line was written.

        ``force`` bypasses sampling and rate limiting — for events that
        must never be lost (startup/shutdown markers).  Field values
        that are not JSON-native are stringified rather than failing the
        request that logged them.
        """
        now = self._clock()
        with self._lock:
            self._seen += 1
            if not force:
                if self._sample_every > 1 and (self._seen % self._sample_every) != 0:
                    self._sampled_out += 1
                    return False
                if self._rate_limit is not None:
                    if now - self._window_start >= 1.0:
                        self._window_start = now
                        self._window_count = 0
                    if self._window_count >= self._rate_limit:
                        self._rate_dropped += 1
                        self._dropped_unreported += 1
                        return False
                    self._window_count += 1
            payload: dict = {"ts": round(now, 6), "event": name}
            if self._dropped_unreported:
                payload["dropped"] = self._dropped_unreported
                self._dropped_unreported = 0
            payload.update(fields)
            line = json.dumps(payload, default=str, separators=(",", ":"))
            self._emitted += 1
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except (OSError, ValueError):  # closed/broken stream: never
                pass  # let logging take down the request being logged
            return True

    def __repr__(self) -> str:
        return (
            f"StructuredLog(emitted={self._emitted}, "
            f"sampled_out={self._sampled_out}, rate_dropped={self._rate_dropped})"
        )
