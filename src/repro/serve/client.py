"""Minimal HTTP client for the query service.

``ServiceClient`` speaks the JSON protocol of
:class:`~repro.serve.http.QueryServer` over ``urllib`` — no
dependencies, usable from scripts, examples, and CI smoke tests.  Server
errors come back as :class:`~repro.errors.ServeError` carrying the
server's message; responses are plain dicts mirroring the wire format
(see ``docs/serving.md`` for the field inventory).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Sequence

import numpy as np

from repro.errors import ServeError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talks to a running :class:`~repro.serve.http.QueryServer`.

    Parameters
    ----------
    host, port:
        Where the server listens.
    timeout:
        Per-request socket timeout in seconds (default 10).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8753, *, timeout: float = 10.0
    ) -> None:
        self._base = f"http://{host}:{int(port)}"
        self._timeout = float(timeout)

    @property
    def base_url(self) -> str:
        """The server's root URL."""
        return self._base

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _request(
        self,
        path: str,
        payload: dict | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if extra_headers:
            headers.update(extra_headers)
        request = urllib.request.Request(
            self._base + path, data=data, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            try:
                message = json.loads(error.read()).get("error", str(error))
            except (json.JSONDecodeError, ValueError):
                message = str(error)
            raise ServeError(f"{path}: {message}") from None
        except urllib.error.URLError as error:
            raise ServeError(f"cannot reach {self._base}: {error.reason}") from None

    @staticmethod
    def _vector_payload(vector: Sequence[float] | np.ndarray) -> list[float]:
        return [float(value) for value in np.asarray(vector, dtype=np.float64).ravel()]

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def query(
        self,
        vector: Sequence[float] | np.ndarray,
        k: int = 10,
        *,
        feature: str | None = None,
        traceparent: str | None = None,
    ) -> dict:
        """``POST /query``: k-NN by signature vector.

        Returns the response dict: ``results`` (each with ``image_id``,
        ``distance``, ``name``, ``label``), ``cache_hit``,
        ``batch_size``, ``distance_computations``, ``latency_ms``, and
        ``trace_id`` when the server traces (the key into
        :meth:`debug_trace`).  ``traceparent`` forwards a W3C
        trace-context header so the request joins an existing
        distributed trace.
        """
        payload: dict = {"vector": self._vector_payload(vector), "k": int(k)}
        if feature is not None:
            payload["feature"] = feature
        return self._request(
            "/query",
            payload,
            {"traceparent": traceparent} if traceparent else None,
        )

    def range_query(
        self,
        vector: Sequence[float] | np.ndarray,
        radius: float,
        *,
        feature: str | None = None,
        traceparent: str | None = None,
    ) -> dict:
        """``POST /range``: all items within ``radius``."""
        payload: dict = {
            "vector": self._vector_payload(vector),
            "radius": float(radius),
        }
        if feature is not None:
            payload["feature"] = feature
        return self._request(
            "/range",
            payload,
            {"traceparent": traceparent} if traceparent else None,
        )

    def add(
        self,
        vectors: Sequence[Sequence[float]] | np.ndarray | None = None,
        *,
        signatures: dict[str, Sequence[Sequence[float]] | np.ndarray] | None = None,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
    ) -> dict:
        """``POST /add``: insert precomputed signatures into the database.

        Pass ``vectors`` (an ``(n, d)`` matrix) for a single-feature
        schema, or ``signatures`` (``{feature: matrix}`` covering every
        schema feature).  Returns ``ids`` (allocated, in row order),
        ``generation`` (the database's data version after the add) and
        ``latency_ms``.  The mutation serializes with in-flight query
        batches on the server's worker.
        """
        payload: dict = {}
        if vectors is not None:
            payload["vectors"] = [
                self._vector_payload(row) for row in np.asarray(vectors)
            ]
        if signatures is not None:
            payload["signatures"] = {
                name: [self._vector_payload(row) for row in np.asarray(rows)]
                for name, rows in signatures.items()
            }
        if labels is not None:
            payload["labels"] = list(labels)
        if names is not None:
            payload["names"] = list(names)
        return self._request("/add", payload)

    def remove(self, image_ids: Sequence[int]) -> dict:
        """``POST /remove``: delete images by id.

        Returns ``removed`` (the ids, in call order), ``generation``,
        and ``latency_ms``.
        """
        return self._request(
            "/remove", {"ids": [int(image_id) for image_id in image_ids]}
        )

    def save(self) -> dict:
        """``POST /save``: compact the journal into a fresh snapshot.

        Returns ``saved``, ``generation``, and ``latency_ms``; fails
        with :class:`~repro.errors.ServeError` when the server runs
        without a journal.  The barrier serializes with in-flight query
        batches — the snapshot is a point-in-time image.
        """
        return self._request("/save", {})

    def stats(self) -> dict:
        """``GET /stats``: the service's current counters."""
        return self._request("/stats")

    def metrics(self) -> str:
        """``GET /metrics``: raw Prometheus text exposition."""
        request = urllib.request.Request(
            self._base + "/metrics", headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServeError(f"/metrics: {error}") from None
        except urllib.error.URLError as error:
            raise ServeError(f"cannot reach {self._base}: {error.reason}") from None

    def healthz(self) -> dict:
        """``GET /healthz``: liveness + database summary."""
        return self._request("/healthz")

    def debug_traces(self) -> dict:
        """``GET /debug/traces``: flight-recorder summaries, newest first."""
        return self._request("/debug/traces")

    def debug_trace(self, trace_id: str) -> dict:
        """``GET /debug/trace?id=``: one full trace (per-stage spans).

        Fails with :class:`~repro.errors.ServeError` when the id is no
        longer retained (the ring evicted it) — fetch promptly.
        """
        return self._request(
            "/debug/trace?id=" + urllib.parse.quote(str(trace_id))
        )

    def debug_slow(self) -> dict:
        """``GET /debug/slow``: full traces past the slow threshold."""
        return self._request("/debug/slow")

    def wait_until_ready(self, timeout: float = 5.0) -> dict:
        """Poll ``/healthz`` until the server answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def __repr__(self) -> str:
        return f"ServiceClient({self._base})"
