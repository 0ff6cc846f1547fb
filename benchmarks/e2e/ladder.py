"""The in-process ladder: the same queries through successive entry points.

Rung 0 is the metric kernel, rung 1 an index, rung 2 ``ImageDatabase``,
rung 3 the scheduler, rung 4 ``ServiceClient`` over a loopback socket.
Each rung's self time is the median, over the queries, of its wall
minus the wall of the rung below on the same query, so a layer's cost
is named even though nothing inside ``src/`` is instrumented.  One
query is in flight at a time; the server of rung 4 runs on a thread of
this process.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.request
from pathlib import Path
from typing import Callable

import numpy as np

from benchmarks.e2e.harness import Spans
from benchmarks.e2e.workloads import K, dataset
from repro.db.backend import resolve_backend_factory
from repro.db.database import ImageDatabase
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index.antipole import AntipoleTree
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer
from repro.serve.scheduler import QueryScheduler

__all__ = ["run_ladder"]

INDEX_KINDS = {
    "linear": LinearScanIndex, "vptree": VPTree,
    "antipole": AntipoleTree, "mtree": MTree,
}
#: The `repro serve` defaults, as in the launcher.
SERVE_DEFAULTS = dict(max_batch=32, max_wait_ms=2.0, cache_size=1024, shards=1,
                      trace_depth=0)
BATCH = 32


class _ByteCounter(urllib.request.BaseHandler):
    """Counts body bytes at the urllib layer ``ServiceClient`` sends through."""

    def __init__(self) -> None:
        self.sent: list[int] = []
        self.received: list[int] = []

    def http_request(self, request):
        self.sent.append(len(request.data or b""))
        return request

    def http_response(self, request, response):
        self.received.append(int(response.headers.get("Content-Length", 0)))
        return response


def run_ladder(seed: int, tmp: Path, spans: Spans, *, smoke: bool) -> dict:
    """All ladder metrics as ``{name: (value, unit)}``."""
    n, n_queries = (500, 10) if smoke else (20_000, 100)
    d = 16
    base, queries = dataset(seed, n, d, n_queries)
    out: dict[str, tuple[float, str]] = {}

    def median_ms(name: str, parent: str | None, call: Callable, items) -> float:
        """Median wall of ``call(item)`` in ms, one span per call."""
        walls = []
        for number, item in enumerate(items):
            start = time.perf_counter()
            call(item)
            end = time.perf_counter()
            spans.add(f"ladder.{name}", start, end, parent, number)
            walls.append(end - start)
        return float(np.median(walls)) * 1e3

    # Rung 0: the kernel floor.
    metric = EuclideanDistance()
    kernel_ms = median_ms(
        "metrics.l2", "ladder.index.linear",
        lambda q: metric.distance_batch(q, base), queries,
    )
    ns_per_distance = kernel_ms * 1e6 / n
    out["metrics.l2.ns_per_distance"] = (ns_per_distance, "ns")

    # Rung 1: every index kind, one query per call as the scheduler
    # issues it when nothing coalesces.  The VP-tree is the database's
    # own, so rungs 1-4 below run the very same tree.
    db = ImageDatabase(FeatureSchema([PresetSignature(d)]))
    start = time.perf_counter()
    db.add_vectors(base)
    out["db.add_vectors_us_per_row"] = ((time.perf_counter() - start) * 1e6 / n, "us")
    knn_ms = {}
    for kind, factory in INDEX_KINDS.items():
        start = time.perf_counter()
        if kind == "vptree":
            db.build_indexes()
            index = vptree = db.index_for(db.default_feature)
        else:
            index = factory(EuclideanDistance())
            index.build(list(range(n)), base)
        out[f"index.{kind}.build_s"] = (time.perf_counter() - start, "s")
        dists = []

        def one(q, index=index, dists=dists):
            index.knn_search_batch(q[None, :], K)
            dists.append(index.last_stats.distance_computations)

        knn_ms[kind] = median_ms(f"index.{kind}", "ladder.db", one, queries)
        mean_dists = float(np.mean(dists))
        out[f"index.{kind}.knn_ms"] = (knn_ms[kind], "ms")
        out[f"index.{kind}.dists_per_query"] = (mean_dists, "count")
        out[f"index.{kind}.overhead_over_floor"] = (
            knn_ms[kind] / (mean_dists * ns_per_distance * 1e-6), "ratio"
        )
    tenth = [answer[-1].distance for answer in vptree.knn_search_batch(queries[:32], K)]
    radius = float(np.median(tenth))
    out["index.vptree.range_ms"] = (
        median_ms("index.vptree.range", "ladder.db",
                  lambda q: vptree.range_search_batch(q[None, :], radius), queries),
        "ms",
    )
    chunks = [queries[i : i + BATCH] for i in range(0, len(queries), BATCH)]
    out["index.vptree.knn_batch32_ms_per_query"] = (
        median_ms("index.vptree.batch32", "ladder.db",
                  lambda chunk: vptree.knn_search_batch(chunk, K), chunks[:3] * 3)
        / len(chunks[0]),
        "ms",
    )
    mmap_index = LinearScanIndex(EuclideanDistance())
    mmap_index.backend_factory = resolve_backend_factory(
        f"mmap:{tmp / 'ladder-mmap'}", cache_pages=max(1, n // 25 // 64)
    )
    mmap_index.build(list(range(n)), base)
    mmap_ms = median_ms("backend.mmap", "ladder.db",
                        lambda q: mmap_index.knn_search_batch(q[None, :], K), queries)
    mmap_index.close()
    out["backend.mmap_over_memory"] = (mmap_ms / knn_ms["linear"], "ratio")

    # Rungs 1-4 on the same query back to back, so each self time is a
    # median of paired differences and machine drift cancels.  The
    # scheduler rung and the wire rung each own a scheduler: the same
    # query must miss both result caches.  ServiceClient opens a
    # connection per request.
    counter = _ByteCounter()
    urllib.request.install_opener(urllib.request.build_opener(counter))
    try:
        with QueryScheduler(db, **SERVE_DEFAULTS) as scheduler, QueryServer(
            db, port=0, **SERVE_DEFAULTS
        ) as server:
            client = ServiceClient(port=server.address[1], timeout=30.0)
            client.wait_until_ready()
            rungs = (
                ("index.vptree", lambda q: vptree.knn_search_batch(q[None, :], K)),
                ("db", lambda q: db.query_batch(q[None, :], K, precomputed=True)),
                ("scheduler", lambda q: scheduler.submit_query(q, K).result()),
                ("wire", lambda q: client.query(q, K)),
            )
            walls = []
            for number, q in enumerate(queries):
                rungs[0][1](q)  # untimed: every timed rung finds the tree's rows cached
                marks = [time.perf_counter()]
                for rung, (name, call) in enumerate(rungs):
                    call(q)
                    marks.append(time.perf_counter())
                    # A rung's parent is the rung above it, its caller.
                    parent = f"ladder.{rungs[rung + 1][0]}" if rung < 3 else None
                    spans.add(f"ladder.{name}", marks[-2], marks[-1], parent, number)
                walls.append(np.diff(marks))
    finally:
        urllib.request.install_opener(urllib.request.build_opener())
    index_ms, db_ms, scheduler_ms, wire_ms = np.array(walls).T * 1e3
    out["db.query_self_ms"] = (float(np.median(db_ms - index_ms)), "ms")
    out["scheduler.self_ms"] = (float(np.median(scheduler_ms - db_ms)), "ms")
    out["wire.self_ms"] = (float(np.median(wire_ms - scheduler_ms)), "ms")
    with QueryScheduler(db, **SERVE_DEFAULTS) as scheduler:

        def burst(chunk):
            for future in [scheduler.submit_query(q, K) for q in chunk]:
                future.result()

        out["scheduler.batch32_ms_per_query"] = (
            median_ms("scheduler.batch32", "ladder.wire", burst, chunks[:3])
            / len(chunks[0]),
            "ms",
        )
    out["wire.request_bytes"] = (float(np.median(counter.sent[1:])), "B")
    out["wire.response_bytes"] = (float(np.median(counter.received[1:])), "B")
    with QueryServer(db, port=0, **SERVE_DEFAULTS) as server:
        connection = http.client.HTTPConnection(*server.address, timeout=30.0)

        def keepalive(q):
            body = json.dumps({"vector": [float(x) for x in q], "k": K})
            connection.request(
                "POST", "/query", body, {"Content-Type": "application/json"}
            )
            connection.getresponse().read()

        try:
            # Fewer samples: each may sit out a delayed-ACK timer.
            keepalive_ms = median_ms("wire.keepalive", None, keepalive, queries[:20])
        finally:
            connection.close()
    out["wire.keepalive_overhead_ms"] = (keepalive_ms - float(np.median(wire_ms)), "ms")
    return out
