"""Serve demo: concurrent clients, coalescing, caching, live mutations.

Drives the whole :mod:`repro.serve` stack in one process:

1. build a vector database (2,000 signatures under a
   :class:`~repro.features.base.PresetSignature` schema — no image
   extraction, this demo is about *serving*),
2. start the HTTP query service (:class:`repro.serve.QueryServer`) on
   an ephemeral port,
3. unleash 8 concurrent :class:`repro.serve.ServiceClient` threads,
   each issuing a stream of k-NN requests drawn from a shared pool of
   popular queries,
4. show the service's own telemetry — formed batch sizes, cache hit
   rate, latency percentiles — and verify every served answer is
   bit-identical to querying the database directly,
5. mutate the database *live* over HTTP (``POST /add`` /
   ``POST /remove``): the new item is immediately retrievable, and the
   generation-stamped cache invalidates exactly the entries the
   mutation made stale (``docs/mutability.md``),
6. pull one request's **trace** back out of the flight recorder
   (``GET /debug/trace?id=``) and print its per-stage span waterfall —
   queue wait, batch forming, engine time with the exact distance
   computations — the forensic layer of ``docs/observability.md``.

Run with::

    python examples/serve_demo.py

Set ``REPRO_DEMO_N`` to shrink the database (CI smoke runs use a tiny
one).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro import ImageDatabase
from repro.eval.harness import ascii_table
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.serve import QueryServer, ServiceClient

N_VECTORS = int(os.environ.get("REPRO_DEMO_N", "2000"))
DIM = 32
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 12
POOL_SIZE = 24  # distinct "popular" queries shared by all clients
K = 5


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A vector database: precomputed signatures, no images.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(42)
    db = ImageDatabase(FeatureSchema([PresetSignature(DIM, "signature")]))
    db.add_vectors(rng.random((N_VECTORS, DIM)))
    db.build_indexes()
    print(f"database: {len(db)} vectors of dim {DIM} under a VP-tree\n")

    # ------------------------------------------------------------------
    # 2. The service: HTTP front end + coalescing scheduler + LRU cache.
    # ------------------------------------------------------------------
    server = QueryServer(db, port=0, max_batch=16, max_wait_ms=2.0).start()
    host, port = server.address
    print(f"serving on http://{host}:{port}\n")

    # ------------------------------------------------------------------
    # 3. Concurrent clients hammering a pool of popular queries.
    # ------------------------------------------------------------------
    pool = rng.random((POOL_SIZE, DIM))
    picks = rng.integers(0, POOL_SIZE, size=(N_CLIENTS, REQUESTS_PER_CLIENT))
    responses: dict[tuple[int, int], dict] = {}
    lock = threading.Lock()

    def client_thread(client_id: int) -> None:
        client = ServiceClient(host, port)
        for step, pick in enumerate(picks[client_id]):
            response = client.query(pool[pick], K)
            with lock:
                responses[(client_id, step)] = response

    threads = [
        threading.Thread(target=client_thread, args=(i,)) for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # ------------------------------------------------------------------
    # 4. Telemetry + the parity check that makes coalescing safe.
    # ------------------------------------------------------------------
    stats = ServiceClient(host, port).stats()

    rows = [
        ["requests served", stats["completed"]],
        ["throughput (q/s)", f"{stats['throughput_qps']:.0f}"],
        ["mean formed batch", f"{stats['mean_batch_size']:.1f}"],
        ["cache hit rate", f"{stats['cache_hit_rate']:.0%}"],
        ["p50 latency (ms)", f"{stats['latency_p50_ms']:.2f}"],
        ["p95 latency (ms)", f"{stats['latency_p95_ms']:.2f}"],
    ]
    print(ascii_table(["metric", "value"], rows, title="service telemetry"))

    mismatches = 0
    for (client_id, step), response in responses.items():
        direct = db.query(pool[picks[client_id, step]], K)
        served = [(r["image_id"], r["distance"]) for r in response["results"]]
        if served != [(r.image_id, r.distance) for r in direct]:
            mismatches += 1
    verdict = "bit-identical" if mismatches == 0 else f"{mismatches} DIVERGED"
    print(
        f"\nparity: {len(responses)} served answers vs direct db.query: {verdict}"
    )
    if mismatches:
        raise SystemExit("served results diverged from direct queries")

    # ------------------------------------------------------------------
    # 5. Live mutation: insert over HTTP, retrieve it, remove it.
    # ------------------------------------------------------------------
    client = ServiceClient(host, port)
    probe = pool[0]
    client.query(probe, K)  # warm the cache entry the add will stale
    added = client.add(probe[None, :], names=["the-probe-itself"])
    # Same query again: the cached pre-add entry is stale, so it is
    # lazily evicted (counted) and recomputed — never served.
    hit = client.query(probe, K)["results"][0]
    assert hit["image_id"] == added["ids"][0] and hit["distance"] == 0.0
    removed = client.remove(added["ids"])
    after = client.stats()
    print(
        f"live mutation: added id {added['ids'][0]} (generation "
        f"{added['generation']}), served it at distance 0.0, "
        f"removed {removed['removed']} — "
        f"{after['mutations']} mutations applied, "
        f"{after['cache_invalidations']} cache entries lazily invalidated, "
        f"no stale answer served"
    )

    # ------------------------------------------------------------------
    # 6. One request's trace: where did the milliseconds go?
    # ------------------------------------------------------------------
    from repro.serve import format_trace

    fresh = rng.random(DIM)  # a cache miss, so the full pipeline runs
    response = client.query(fresh, K)
    trace = client.debug_trace(response["trace_id"])
    print(f"\ntrace for that query (id {response['trace_id']}):")
    print(format_trace(trace))
    server.stop()


if __name__ == "__main__":
    main()
