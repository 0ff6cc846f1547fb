"""The one-thread HTTP front end on raw sockets.

Framing (``Expect: 100-continue``, chunked bodies, over-long heads,
over-size bodies, pipelining), clients that idle, dribble or vanish,
and the shutdown order: stop accepting, close the scheduler, flush
every completed response, close every connection.
"""

import json
import os
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.serve import http as front
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer

_DIM = 4


def _db() -> ImageDatabase:
    db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
    db.add_vectors(np.random.default_rng(3).random((40, _DIM)))
    db.build_indexes()
    return db


def _gate(db: ImageDatabase) -> tuple[threading.Event, threading.Event]:
    """Hold every k-NN query inside the worker until ``release`` is set."""
    entered, release = threading.Event(), threading.Event()
    inner = db.query

    def gated(*args, **kwargs):
        entered.set()
        release.wait(10)
        return inner(*args, **kwargs)

    db.query = gated
    return entered, release


@pytest.fixture
def server():
    server = QueryServer(_db(), port=0, max_wait_ms=0.5).start()
    yield server
    server.stop()


def _connect(server: QueryServer) -> socket.socket:
    return socket.create_connection(server.address, timeout=5)


def _request(method: str, path: str, body: bytes = b"", *headers: str) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _query(vector, k: int = 3) -> bytes:
    return json.dumps({"vector": [float(x) for x in vector], "k": k}).encode()


def _response(sock: socket.socket) -> tuple[int, dict, bytes]:
    """Read one response: (status, lower-cased headers, body).

    Unbuffered, so a pipelined response behind it stays in the socket.
    """
    with sock.makefile("rb", buffering=0) as raw:
        status_line = raw.readline()
        assert status_line, "connection closed before a response"
        headers = {}
        while (line := raw.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        while len(body) < int(headers.get("content-length", "0")):
            chunk = raw.read(int(headers["content-length"]) - len(body))
            assert chunk, "connection closed mid-body"
            body += chunk
    return int(status_line.split()[1]), headers, body


def _closed_by_server(sock: socket.socket, timeout: float = 2.0) -> bool:
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


def _reset(sock: socket.socket) -> None:
    """Close with an RST instead of a FIN."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


class TestExpectContinue:
    def test_interim_response_arrives_before_the_body(self, server):
        body = _query(np.zeros(_DIM))
        with _connect(server) as sock:
            head = _request("POST", "/query", b"", "Expect: 100-continue",
                            f"Content-Length: {len(body)}")
            sock.sendall(head)
            sock.settimeout(2.0)
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            status, _, reply = _response(sock)
        assert status == 200 and len(json.loads(reply)["results"]) == 3

    def test_over_size_length_gets_the_400_instead(self, server):
        with _connect(server) as sock:
            sock.sendall(_request("POST", "/query", b"", "Expect: 100-continue",
                                  f"Content-Length: {2 * front._MAX_BODY_BYTES}"))
            status, _, reply = _response(sock)
            assert status == 400 and "exceeds" in json.loads(reply)["error"]
            assert _closed_by_server(sock)


class TestFrontDoorRobustness:
    def test_idle_and_slow_loris_clients_cost_no_thread(self, server):
        client = ServiceClient(*server.address)
        vector = np.full(_DIM, 0.25)
        client.query(vector, 3)
        assert client.query(vector, 3)["cache_hit"]
        threads = threading.active_count()
        idle = [_connect(server) for _ in range(64)]
        loris = _connect(server)
        dribble = _request("POST", "/query", _query(vector))
        took = []
        try:
            for step in range(20):
                loris.sendall(dribble[step : step + 1])
                time.sleep(0.05)
                if step % 2:
                    start = time.perf_counter()
                    assert client.query(vector, 3)["cache_hit"]
                    took.append(time.perf_counter() - start)
                assert threading.active_count() <= threads, threading.enumerate()
        finally:
            for sock in [*idle, loris]:
                sock.close()
        assert sorted(took)[len(took) // 2] < 0.050, took

    def test_idle_connection_is_closed_after_the_idle_timeout(self, monkeypatch):
        monkeypatch.setattr(front, "_IDLE_TIMEOUT_S", 0.3)
        with QueryServer(_db(), port=0) as server, _connect(server) as sock:
            sock.sendall(_request("GET", "/healthz"))
            assert _response(sock)[0] == 200
            start = time.monotonic()
            assert _closed_by_server(sock, timeout=5.0)
            assert 0.25 < time.monotonic() - start < 3.0

    def test_client_resets_leave_no_traceback(self, capfd):
        db = _db()
        entered, release = _gate(db)
        with QueryServer(db, port=0, max_wait_ms=0.0) as server:
            client = ServiceClient(*server.address)
            with _connect(server) as sock:  # reset mid-request
                sock.sendall(_request("POST", "/query", _query(np.zeros(_DIM)))[:30])
                _reset(sock)
            completed = client.stats()["completed"]
            sock = _connect(server)  # reset while the query is in the worker
            sock.sendall(_request("POST", "/query", _query(np.ones(_DIM))))
            assert entered.wait(5)
            _reset(sock)
            release.set()
            deadline = time.monotonic() + 5
            while client.stats()["completed"] == completed:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert client.stats()["completed"] == completed + 1  # dropped, counted once
            assert len(client.query(np.zeros(_DIM), 3)["results"]) == 3
            time.sleep(0.1)
            assert client.stats()["completed"] == completed + 2
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /query HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 66_000,
            b"POST /query HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
        ],
        ids=["chunked", "over-long-head", "over-size-length"],
    )
    def test_unframeable_requests_get_a_4xx_and_a_closed_connection(self, server, raw):
        with _connect(server) as sock:
            sock.sendall(raw)
            status, headers, _ = _response(sock)
            assert 400 <= status < 500
            assert headers["connection"] == "close"
            assert _closed_by_server(sock)

    def test_concurrent_keep_alive_clients_under_a_short_switch_interval(self):
        # More client threads than cores, each on its own keep-alive
        # connection, racing done-callbacks against the loop: a lost or
        # crossed completion fails an answer or the count.
        db = _db()
        server = QueryServer(db, port=0, max_wait_ms=0.5).start()
        queries = np.random.default_rng(5).random((8, _DIM))
        answers: dict[int, list] = {}

        def client(worker: int) -> None:
            replies = answers[worker] = []
            with _connect(server) as sock:
                for step in range(25):
                    which = (worker + step) % len(queries)
                    sock.sendall(_request("POST", "/query", _query(queries[which], 4)))
                    status, _, body = _response(sock)
                    ids = [r["image_id"] for r in json.loads(body)["results"]]
                    replies.append((which, status, ids))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        expected = [[r.image_id for r in db.query(q, 4)] for q in queries]
        assert sorted(answers) == list(range(12))
        for replies in answers.values():
            for which, status, ids in replies:
                assert status == 200 and ids == expected[which]
        assert server.scheduler.stats().completed == 12 * 25

    def test_pipelined_requests_are_answered_in_order(self, server):
        client = ServiceClient(*server.address)
        cached = np.full(_DIM, 0.75)
        client.query(cached, 2)
        with _connect(server) as sock:
            sock.sendall(
                _request("POST", "/query", _query(np.full(_DIM, 0.1), 5))
                + _request("POST", "/query", _query(cached, 2))
                + _request("GET", "/healthz")
            )
            first, second, third = (_response(sock) for _ in range(3))
        assert [reply[0] for reply in (first, second, third)] == [200, 200, 200]
        assert len(json.loads(first[2])["results"]) == 5
        assert json.loads(second[2])["cache_hit"]
        assert json.loads(third[2])["status"] == "ok"

    def test_fd_exhaustion_pauses_the_listener_instead_of_spinning(self):
        """Out of descriptors, ``accept`` fails with EMFILE while the
        waiting connection keeps the listener readable.  The loop stops
        watching it instead of spinning, keeps answering the open
        connections, and serves the waiting client once a descriptor
        frees.  Only this process's own RLIMIT_NOFILE is lowered, to
        one past a single placeholder descriptor, and restored."""
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        server = QueryServer(_db(), port=0, max_wait_ms=0.5).start()
        query = _request("POST", "/query", _query(np.full(_DIM, 0.25)))
        held, waiting = _connect(server), socket.socket()
        stat = os.open(f"/proc/self/task/{server._thread.native_id}/stat", os.O_RDONLY)
        placeholder = None
        try:
            held.sendall(query)
            assert _response(held)[0] == 200
            # The lowest free descriptor: every one below it is taken.
            placeholder = os.open(os.devnull, os.O_RDONLY)
            resource.setrlimit(resource.RLIMIT_NOFILE, (placeholder + 1, hard))
            waiting.settimeout(5)
            waiting.connect(server.address)  # the server cannot accept it
            time.sleep(0.2)

            def cpu_s() -> float:
                fields = os.pread(stat, 4096, 0).rsplit(b")", 1)[1].split()
                return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

            start, used = time.monotonic(), cpu_s()
            while time.monotonic() - start < 2.0:
                held.sendall(query)  # open connections are still answered
                assert _response(held)[0] == 200
                time.sleep(0.25)
            used = cpu_s() - used
            assert used < 0.05 * (time.monotonic() - start), used

            os.close(placeholder)
            placeholder, freed = None, time.monotonic()
            waiting.sendall(query)
            assert _response(waiting)[0] == 200
            assert time.monotonic() - freed < 1.0
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
            for fd in (placeholder, stat):
                if fd is not None:
                    os.close(fd)
            held.close()
            waiting.close()
            server.stop()


class TestShutdownOverTheSocket:
    @staticmethod
    def _stop_while_gated(server, release, drain):
        stopper = threading.Thread(target=server.stop, kwargs={"drain": drain})
        stopper.start()
        deadline = time.monotonic() + 5
        while not server.scheduler.is_closed and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)  # the close is under way: the worker is still held
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=1).close()
        release.set()
        return stopper

    @pytest.mark.parametrize("drain", [True, False])
    def test_request_inside_the_worker_gets_its_200(self, drain):
        db = _db()
        entered, release = _gate(db)
        server = QueryServer(db, port=0, max_wait_ms=0.0).start()
        with _connect(server) as sock:
            sock.sendall(_request("POST", "/query", _query(np.zeros(_DIM))))
            assert entered.wait(5)
            stopper = self._stop_while_gated(server, release, drain)
            status, headers, body = _response(sock)
            assert status == 200 and len(json.loads(body)["results"]) == 3
            assert headers["connection"] == "close"
        stopper.join(5)
        assert not stopper.is_alive()

    def test_queued_request_gets_503_shutting_down(self):
        db = _db()
        entered, release = _gate(db)
        server = QueryServer(db, port=0, max_wait_ms=0.0).start()
        with _connect(server) as first, _connect(server) as queued:
            first.sendall(_request("POST", "/query", _query(np.zeros(_DIM))))
            assert entered.wait(5)
            submitted = server.scheduler.stats().submitted
            queued.sendall(_request("POST", "/query", _query(np.ones(_DIM))))
            deadline = time.monotonic() + 5
            while server.scheduler.stats().submitted == submitted:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            stopper = self._stop_while_gated(server, release, drain=False)
            assert _response(first)[0] == 200
            status, _, body = _response(queued)
            assert status == 503 and json.loads(body)["shutting_down"] is True
        stopper.join(5)
        assert not stopper.is_alive()

    def test_stop_is_prompt_and_closes_every_connection(self):
        server = QueryServer(_db(), port=0).start()
        fresh, kept, partial = (_connect(server) for _ in range(3))
        try:
            kept.sendall(_request("GET", "/healthz"))
            assert _response(kept)[0] == 200
            partial.sendall(b"POST /query HTTP/1.1\r\nContent-Le")
            time.sleep(0.05)
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 5.0
            for sock in (fresh, kept, partial):
                assert _closed_by_server(sock, timeout=1.0)
        finally:
            for sock in (fresh, kept, partial):
                sock.close()
