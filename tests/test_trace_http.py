"""Tracing over the wire: headers, /debug endpoints, access log.

Every HTTP answer from a tracing server carries ``X-Repro-Trace-Id``
and a ``trace_id`` body field; an inbound W3C ``traceparent`` donates
its trace id so the request joins the caller's distributed trace.  The
trace is finished *before* the response bytes go out, so a client that
immediately fetches ``/debug/trace?id=`` always sees the complete span
set — that race-freedom is load-bearing for the CI smoke step and
pinned here.
"""

import io
import json
import urllib.request

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.errors import ServeError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer
from repro.serve.logsys import StructuredLog
from repro.serve.metrics import validate_exposition

_DIM = 6
_N = 80
_TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"


def _make_db(seed: int = 31):
    db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
    db.add_vectors(np.random.default_rng(seed).random((_N, _DIM)))
    db.build_indexes()
    return db


@pytest.fixture(scope="module")
def served():
    db = _make_db()
    server = QueryServer(db, port=0, max_batch=8, max_wait_ms=1.0).start()
    host, port = server.address
    yield server, ServiceClient(host, port)
    server.stop()


class TestTraceHeaders:
    def test_response_carries_trace_id(self, served):
        server, client = served
        response = client.query(np.random.default_rng(1).random(_DIM), 3)
        assert "trace_id" in response and len(response["trace_id"]) == 32

    def test_header_matches_body(self, served):
        server, _ = served
        host, port = server.address
        body = json.dumps(
            {"vector": [0.25] * _DIM, "k": 3}
        ).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            payload = json.loads(response.read())
            assert response.headers["X-Repro-Trace-Id"] == payload["trace_id"]

    def test_inbound_traceparent_donates_trace_id(self, served):
        _, client = served
        response = client.query(
            np.random.default_rng(2).random(_DIM), 3, traceparent=_TRACEPARENT
        )
        assert response["trace_id"] == "4bf92f3577b34da6a3ce929d0e0e4736"
        trace = client.debug_trace(response["trace_id"])
        assert trace["parent_id"] == "00f067aa0ba902b7"

    def test_malformed_traceparent_gets_fresh_id(self, served):
        _, client = served
        response = client.query(
            np.random.default_rng(3).random(_DIM), 3, traceparent="bogus-header"
        )
        assert len(response["trace_id"]) == 32
        assert response["trace_id"] != "4bf92f3577b34da6a3ce929d0e0e4736"


class TestDebugEndpoints:
    def test_trace_fetch_right_after_response(self, served):
        # The trace finishes before response bytes are written, so a
        # same-connection follow-up fetch must see every span.
        _, client = served
        response = client.query(np.random.default_rng(4).random(_DIM), 3)
        trace = client.debug_trace(response["trace_id"])
        stages = [span["stage"] for span in trace["spans"]]
        for stage in ("queue-wait", "engine", "respond"):
            assert stage in stages, stages
        assert trace["status"] == "ok"
        assert trace["route"] == "knn"

    def test_engine_span_cost_matches_reported_stats(self, served):
        _, client = served
        response = client.query(np.random.default_rng(5).random(_DIM), 3)
        trace = client.debug_trace(response["trace_id"])
        # Annotations are flattened into the span's wire dict.
        engine_cost = sum(
            span["distance_computations"]
            for span in trace["spans"]
            if span["stage"] == "engine"
        )
        assert engine_cost == response["distance_computations"]

    def test_traces_listing(self, served):
        _, client = served
        response = client.query(np.random.default_rng(6).random(_DIM), 4)
        listing = client.debug_traces()
        assert listing["enabled"] is True
        assert listing["depth"] > 0
        assert listing["recorded"] >= 1
        assert any(
            t["trace_id"] == response["trace_id"] for t in listing["traces"]
        )
        newest = listing["traces"][0]
        for field in ("trace_id", "route", "status", "latency_ms", "n_spans"):
            assert field in newest

    def test_trace_missing_id_400(self, served):
        _, client = served
        with pytest.raises(ServeError, match="id"):
            client._request("/debug/trace")

    def test_trace_unknown_id_404(self, served):
        _, client = served
        with pytest.raises(ServeError, match="no retained trace"):
            client.debug_trace("f" * 32)

    def test_slow_log_endpoint_shape(self, served):
        _, client = served
        slow = client.debug_slow()
        assert "threshold_ms" in slow
        assert "captured" in slow
        assert isinstance(slow["traces"], list)

    def test_error_request_leaves_error_trace(self, served):
        _, client = served
        with pytest.raises(ServeError):
            client.query(
                np.zeros(_DIM), 0, traceparent=_TRACEPARENT.replace("4bf9", "5caa")
            )
        trace = client.debug_trace("5caa2f3577b34da6a3ce929d0e0e4736")
        assert trace["status"] == "error"

    def test_stats_exposes_recent_qps(self, served):
        _, client = served
        client.query(np.random.default_rng(7).random(_DIM), 2)
        stats = client.stats()
        assert "recent_qps" in stats
        assert stats["recent_qps"] >= 0.0

    def test_live_metrics_pass_exposition_validator(self, served):
        _, client = served
        client.query(np.random.default_rng(8).random(_DIM), 2)
        text = client.metrics()
        families = validate_exposition(text)
        assert "repro_stage_seconds" in families
        assert "repro_process" in families
        assert 'repro_process{figure="rss_bytes"}' in text


class TestTracingDisabled:
    def test_depth_zero_server_omits_trace_id(self):
        db = _make_db(seed=7)
        with QueryServer(db, port=0, trace_depth=0, max_wait_ms=0.5) as server:
            host, port = server.address
            client = ServiceClient(host, port)
            response = client.query(np.zeros(_DIM), 3)
            assert "trace_id" not in response
            listing = client.debug_traces()
            assert listing["enabled"] is False


class TestAccessLog:
    def test_access_log_lines_are_json_with_trace_ids(self):
        db = _make_db(seed=9)
        stream = io.StringIO()
        log = StructuredLog(stream)
        with QueryServer(
            db, port=0, max_wait_ms=0.5, access_log=log
        ) as server:
            host, port = server.address
            client = ServiceClient(host, port)
            response = client.query(np.zeros(_DIM), 3)
            client.stats()
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        requests = [l for l in lines if l["event"] == "http_request"]
        assert len(requests) >= 2
        query_line = next(l for l in requests if l["path"] == "/query")
        assert query_line["method"] == "POST"
        assert query_line["status"] == 200
        assert query_line["trace_id"] == response["trace_id"]
        assert query_line["latency_ms"] >= 0.0
