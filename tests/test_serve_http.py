"""HTTP front end + client + CLI: the service over a real socket.

Servers bind ephemeral ports (``port=0``) on the loopback interface;
the CLI test exercises the actual ``repro serve`` process end to end —
startup banner, client round trip, SIGTERM, clean shutdown — mirroring
the CI smoke step.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.errors import ServeError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer

_DIM = 6
_N = 90


@pytest.fixture(scope="module")
def served():
    """One server + client pair shared by the module's read-only tests."""
    db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
    rng = np.random.default_rng(31)
    db.add_vectors(rng.random((_N, _DIM)))
    db.build_indexes()
    server = QueryServer(db, port=0, max_batch=8, max_wait_ms=1.0).start()
    host, port = server.address
    client = ServiceClient(host, port)
    yield db, server, client
    server.stop()


class TestEndpoints:
    def test_healthz(self, served):
        _, _, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["images"] == _N
        assert health["features"] == ["sig"]
        assert health["uptime_s"] >= 0.0

    def test_query_parity_with_direct_call(self, served):
        db, _, client = served
        vector = np.random.default_rng(5).random(_DIM)
        response = client.query(vector, 4, feature="sig")
        direct = db.query(vector, 4)
        assert [r["image_id"] for r in response["results"]] == [
            r.image_id for r in direct
        ]
        # JSON floats round-trip exactly (repr is shortest-round-trip),
        # so even over the wire parity stays bitwise.
        assert [r["distance"] for r in response["results"]] == [
            r.distance for r in direct
        ]
        assert response["distance_computations"] > 0
        assert response["batch_size"] >= 1

    def test_range_parity_with_direct_call(self, served):
        db, _, client = served
        vector = np.random.default_rng(6).random(_DIM)
        response = client.range_query(vector, 0.7)
        direct = db.range_query(vector, 0.7)
        assert [(r["image_id"], r["distance"]) for r in response["results"]] == [
            (r.image_id, r.distance) for r in direct
        ]

    def test_repeat_query_hits_cache(self, served):
        _, _, client = served
        vector = np.random.default_rng(7).random(_DIM)
        first = client.query(vector, 3)
        second = client.query(vector, 3)
        assert not first["cache_hit"]
        assert second["cache_hit"]
        assert second["results"] == first["results"]

    def test_stats_endpoint_reflects_traffic(self, served):
        _, _, client = served
        client.query(np.random.default_rng(8).random(_DIM), 2)
        stats = client.stats()
        for field in (
            "completed",
            "mean_batch_size",
            "cache_hit_rate",
            "latency_p50_ms",
            "latency_p95_ms",
            "throughput_qps",
        ):
            assert field in stats
        assert stats["completed"] >= 1

    def test_concurrent_clients_all_get_parity(self, served):
        db, _, client = served
        rng = np.random.default_rng(9)
        pool = rng.random((6, _DIM))
        outcomes: dict[int, dict] = {}
        lock = threading.Lock()

        def worker(worker_id: int) -> None:
            response = client.query(pool[worker_id % len(pool)], 3)
            with lock:
                outcomes[worker_id] = response

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 12
        for worker_id, response in outcomes.items():
            direct = db.query(pool[worker_id % len(pool)], 3)
            assert [(r["image_id"], r["distance"]) for r in response["results"]] == [
                (r.image_id, r.distance) for r in direct
            ]

    def test_keep_alive_requests_do_not_stall(self, served):
        """Headers and body leave in one write.

        Sent as two, every request after the first on a connection sat
        out the client's delayed ACK — ~44 ms each.  The same cached
        query over one ``http.client`` connection takes about a
        millisecond; the median keeps a scheduling hiccup from failing
        the test.
        """
        _, server, _ = served
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        body = json.dumps({"vector": [0.5] * _DIM, "k": 3})
        took = []
        for _ in range(8):
            start = time.perf_counter()
            conn.request("POST", "/query", body, {"Content-Type": "application/json"})
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            took.append(time.perf_counter() - start)
            assert reply.status == 200 and len(payload["results"]) == 3
        conn.request("GET", "/metrics")  # the one non-JSON response
        start = time.perf_counter()
        assert conn.getresponse().read().startswith(b"# HELP")
        took.append(time.perf_counter() - start)
        conn.close()
        assert sorted(took[1:])[len(took) // 2] < 0.020, took


class TestErrorHandling:
    def test_unknown_path_404(self, served):
        _, server, client = served
        with pytest.raises(ServeError, match="unknown path"):
            client._request("/nope")
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/nope", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404

    def test_malformed_body_400(self, served):
        _, server, _ = served
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert "JSON" in json.loads(excinfo.value.read())["error"]

    def test_missing_vector_400(self, served):
        _, _, client = served
        with pytest.raises(ServeError, match="vector"):
            client._request("/query", {"k": 3})

    def test_wrong_dimension_400(self, served):
        _, _, client = served
        with pytest.raises(ServeError, match="dim"):
            client.query(np.zeros(_DIM + 2), 3)

    def test_bad_k_and_radius_400(self, served):
        _, _, client = served
        with pytest.raises(ServeError, match="k must be"):
            client.query(np.zeros(_DIM), 0)
        with pytest.raises(ServeError, match="radius"):
            client.range_query(np.zeros(_DIM), -0.5)
        with pytest.raises(ServeError, match="integer"):
            client._request("/query", {"vector": [0.0] * _DIM, "k": "five"})

    def test_nan_radius_400(self, served):
        # JSON admits NaN; it is a bad radius, not an empty 200 answer.
        _, server, _ = served
        body = json.dumps({"vector": [0.0] * _DIM, "radius": float("nan")})
        status, reply = _raw_post(
            server.address, "/range", body.encode(), str(len(body))
        )
        assert status == 400
        assert "radius" in json.loads(reply)["error"]

    @pytest.mark.parametrize("path", ["/query", "/range"])
    def test_non_finite_vector_400(self, served, path):
        # JSON admits NaN and Infinity; admission refuses the vector
        # before it can join (and fail) an engine group.
        _, server, client = served
        parameter = '"k": 3' if path == "/query" else '"radius": 0.5'
        before = client.stats()
        for literal in ("NaN", "Infinity"):
            body = (
                f'{{"vector": [{literal}{", 0.0" * (_DIM - 1)}], {parameter}}}'
            ).encode()
            status, reply = _raw_post(server.address, path, body, str(len(body)))
            assert status == 400
            assert "non-finite" in json.loads(reply)["error"]
        after = client.stats()
        assert after["submitted"] == before["submitted"]
        assert after["batches_formed"] == before["batches_formed"]

    @pytest.mark.parametrize(
        "path, payload, needle",
        [
            ("/query", {"vector": ["0.5"] * _DIM, "k": 3}, "only numbers"),
            ("/query", {"vector": [True, False] * (_DIM // 2)}, "only numbers"),
            ("/query", {"vector": [10**400] + [0] * (_DIM - 1)}, "only numbers"),
            ("/range", {"vector": ["0.5"] * _DIM, "radius": 0.5}, "only numbers"),
            ("/add", {"vectors": [[True, False] * (_DIM // 2)]}, "rows of numbers"),
            ("/add", {"signatures": {"sig": [["0.5"] * _DIM]}}, "rows of numbers"),
        ],
        ids=["query-strings", "query-bools", "query-huge-int", "range-strings",
             "add-vectors-bools", "add-signatures-strings"],
    )
    def test_entries_that_are_not_json_numbers_400(self, served, path, payload, needle):
        # NumPy would read "0.5" as a number and true as 1.0.
        db, server, _ = served
        before = len(db)
        body = json.dumps(payload).encode()
        status, reply = _raw_post(server.address, path, body, str(len(body)))
        assert status == 400
        assert needle in json.loads(reply)["error"]
        assert len(db) == before

    def test_unknown_feature_400(self, served):
        _, _, client = served
        with pytest.raises(ServeError, match="unknown feature"):
            client.query(np.zeros(_DIM), 3, feature="nope")

    def test_unreachable_server(self):
        client = ServiceClient(port=1, timeout=0.5)
        with pytest.raises(ServeError, match="cannot reach"):
            client.healthz()


def _raw_post(address, path, body, content_length):
    """POST with a hand-written Content-Length (http.client would fix it)."""
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


class TestHostileRequests:
    """Malformed framing answers 400 with a finished trace — never an
    empty reply, a traceback on stderr, or a trace left open."""

    _GOOD = json.dumps({"vector": [0.0] * _DIM, "k": 3}).encode()

    @pytest.mark.parametrize(
        "path, body, content_length, needle",
        [
            ("/query", _GOOD, "abc", "Content-Length"),
            ("/save", b"", "abc", "Content-Length"),
            ("/query", b'{"vector": "\xff\xfe"}', None, "JSON"),
            # Lying-short: the server reads a truncated document.
            ("/query", _GOOD, str(len(_GOOD) // 2), "JSON"),
        ],
        ids=["non-numeric-length", "non-numeric-length-save", "non-utf8", "short-length"],
    )
    def test_bad_framing_is_a_400_with_a_finished_trace(
        self, served, capfd, path, body, content_length, needle
    ):
        _, server, client = served
        recorder = server.scheduler.flight_recorder
        before = recorder.recorded
        status, reply = _raw_post(
            server.address, path, body, content_length or str(len(body))
        )
        assert status == 400
        assert needle in json.loads(reply)["error"]
        assert recorder.recorded == before + 1
        assert recorder.traces()[0].status == "error"
        assert capfd.readouterr().err == ""
        # The handler thread survived: the next request is served.
        assert len(client.query(np.zeros(_DIM), 3)["results"]) == 3

    def test_queue_full_is_503_by_type_not_by_message(self):
        from repro.serve.scheduler import QueryScheduler

        db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
        db.add_vectors(np.random.default_rng(0).random((10, _DIM)))
        scheduler = QueryScheduler(db, max_queue=1, cache_size=0, autostart=False)
        staged = scheduler.submit_query(np.zeros(_DIM), 3)
        server = QueryServer(db, port=0, scheduler=scheduler).start()
        try:
            status, reply = _raw_post(
                server.address, "/query", self._GOOD, str(len(self._GOOD))
            )
            assert status == 503
            payload = json.loads(reply)
            assert "shutting_down" not in payload
            assert scheduler.flight_recorder.find(payload["trace_id"]).status == "rejected"
            assert scheduler.stats().rejected == 1
            scheduler.start()
            assert len(staged.result(timeout=10).results) == 3
        finally:
            server.stop()


class TestServerLifecycle:
    def test_start_stop_idempotent(self):
        db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
        db.add_vectors(np.random.default_rng(0).random((10, _DIM)))
        server = QueryServer(db, port=0)
        with server:
            host, port = server.address
            assert ServiceClient(host, port).healthz()["images"] == 10
        server.stop()  # second stop is a no-op
        assert "stopped" in repr(server)

    def test_prebuilt_scheduler_and_option_conflict(self):
        db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
        db.add_vectors(np.random.default_rng(0).random((10, _DIM)))
        from repro.serve.scheduler import QueryScheduler

        scheduler = QueryScheduler(db)
        with pytest.raises(ServeError, match="not both"):
            QueryServer(db, scheduler=scheduler, max_batch=4)
        server = QueryServer(db, port=0, scheduler=scheduler)
        server.stop()


class TestServeCLI:
    def test_serve_cli_end_to_end_sigterm_clean_shutdown(self, tmp_path):
        # demo -> build -> serve -> client query -> SIGTERM; the process
        # must come down cleanly with exit code 0 (the CI smoke step).
        from repro.cli import main

        corpus = tmp_path / "corpus"
        db_dir = tmp_path / "corpus.db"
        assert main(["demo", str(corpus), "--per-class", "2", "--size", "32"]) == 0
        assert (
            main(
                ["--working-size", "32", "build", str(corpus), "--db", str(db_dir)]
            )
            == 0
        )

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "--working-size",
                "32",
                "serve",
                "--db",
                str(db_dir),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner and "http://" in banner
            port = int(banner.split("http://")[1].split()[0].split(":")[1])

            client = ServiceClient(port=port, timeout=5.0)
            health = client.wait_until_ready(timeout=10.0)
            assert health["status"] == "ok" and health["images"] == 16

            assert "completed" in client.stats()  # reachable before traffic
            from repro.features.pipeline import default_schema

            schema = default_schema(working_size=32)
            dim = schema.get(schema.names[0]).dim
            response = client.query(np.zeros(dim), 3)
            assert len(response["results"]) == 3

            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=15)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "shutdown clean" in out
        assert "served 1 requests" in out
