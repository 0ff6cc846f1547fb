"""Sharded scatter-gather serving: exact parity, routing, stress.

The pinned guarantees (see ``repro/serve/shard.py``):

* **bit-identical results** — a scheduler over N shards returns exactly
  what the unsharded scheduler returns (ids, distance floats,
  tie-breaks), for k-NN and range, static and under any interleaving of
  queries with adds/removes;
* **summed cost parity** — under a linear-scan index, per-query
  distance-computation counts summed across shards equal the unsharded
  count exactly (the shard slices partition the table);
* **mutation routing** — ids land on shard ``id % n_shards``, global id
  allocation matches the unsharded sequence, and the final sharded
  state matches a fresh unsharded build over the final item set;
* **per-shard cache stamps** — a mutation on one shard invalidates
  cached entries even when other shards are untouched (the tuple-stamp
  regression);
* **liveness under pressure** — 16 clients against a 4-shard scheduler
  with one deliberately slow shard never deadlock, the admission queue
  stays bounded, and the token-bucket limiter fails fast with
  :class:`~repro.errors.RateLimitError` (HTTP 429), distinct from
  queue-full.
"""

import threading
import time

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.errors import CatalogError, RateLimitError, ServeError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index.linear import LinearScanIndex
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer
from repro.serve.scheduler import QueryScheduler, TokenBucket
from repro.serve.shard import ShardedEngine, shard_of

_DIM = 8
_N = 120


def _make_db(vectors, *, linear=False, backend=None):
    schema = FeatureSchema([PresetSignature(_DIM, "sig")])
    factory = (lambda metric: LinearScanIndex(metric)) if linear else None
    db = ImageDatabase(schema, index_factory=factory, backend=backend)
    if len(vectors):
        db.add_vectors(vectors)
    return db


def _pairs(results):
    return [(r.image_id, r.distance) for r in results]


@pytest.fixture
def base_vectors(rng):
    return rng.random((_N, _DIM))


# ---------------------------------------------------------------------------
# Static parity: same database, 1 vs 2 vs 4 shards
# ---------------------------------------------------------------------------
class TestStaticParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("linear", [False, True])
    def test_knn_and_range_bit_identical(self, base_vectors, rng, shards, linear):
        reference = _make_db(base_vectors, linear=linear)
        sharded = _make_db(base_vectors, linear=linear)
        queries = rng.random((12, _DIM))
        with QueryScheduler(reference, cache_size=0) as ref, QueryScheduler(
            sharded, cache_size=0, shards=shards
        ) as test:
            for q in queries:
                for submit_ref, submit_test, parameter in (
                    (ref.submit_query, test.submit_query, 7),
                    (ref.submit_range, test.submit_range, 1.1),
                ):
                    expected = submit_ref(q, parameter).result(timeout=10)
                    served = submit_test(q, parameter).result(timeout=10)
                    assert _pairs(served.results) == _pairs(expected.results)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_linear_scan_costs_sum_exactly(self, base_vectors, rng, shards):
        # Linear scan evaluates every row: shard slices partition the
        # table, so summed per-query counters equal the unsharded count.
        reference = _make_db(base_vectors, linear=True)
        sharded = _make_db(base_vectors, linear=True)
        with QueryScheduler(reference, cache_size=0) as ref, QueryScheduler(
            sharded, cache_size=0, shards=shards
        ) as test:
            for q in rng.random((6, _DIM)):
                expected = ref.submit_query(q, 5).result(timeout=10)
                served = test.submit_query(q, 5).result(timeout=10)
                assert (
                    served.stats.distance_computations
                    == expected.stats.distance_computations
                    == _N
                )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("linear", [False, True])
    def test_mmap_backend_bit_identical(
        self, base_vectors, rng, tmp_path, shards, linear
    ):
        """The full static-parity scenario with the reference on the
        in-memory backend and the test scheduler paging its index cores
        through a tiny mmap buffer pool: ids, distance floats, and
        tie-breaks stay byte-identical, and under a linear scan the
        counted distance computations match the memory backend exactly
        (the block-chunked evaluation is the same arithmetic)."""
        from repro.db.backend import MmapBackendFactory

        mmap = MmapBackendFactory(
            tmp_path / "cores", cache_pages=2, page_records=16
        )
        reference = _make_db(base_vectors, linear=linear)
        sharded = _make_db(base_vectors, linear=linear, backend=mmap)
        queries = rng.random((12, _DIM))
        with QueryScheduler(reference, cache_size=0) as ref, QueryScheduler(
            sharded, cache_size=0, shards=shards
        ) as test:
            for q in queries:
                for submit_ref, submit_test, parameter in (
                    (ref.submit_query, test.submit_query, 7),
                    (ref.submit_range, test.submit_range, 1.1),
                ):
                    expected = submit_ref(q, parameter).result(timeout=10)
                    served = submit_test(q, parameter).result(timeout=10)
                    assert _pairs(served.results) == _pairs(expected.results)
                    if linear:
                        # Shard slices partition the scan, so summed
                        # counts match the unsharded memory backend
                        # exactly (tree pruning varies with the
                        # partition, backend or not).
                        assert (
                            served.stats.distance_computations
                            == expected.stats.distance_computations
                        )
            stats = test.stats()
            assert stats.backend == "mmap"
            assert stats.pool_resident <= stats.pool_capacity
            if linear:
                # Exact cost parity: every query scanned all _N rows.
                final = test.submit_query(queries[0], 7).result(timeout=10)
                assert final.stats.distance_computations == _N
                # The linear scan pages every block through the buffer
                # pool (tree indexes read the memmap view directly, so
                # only the bounded scan path counts pool traffic).
                assert stats.pool_misses > 0

    def test_empty_shard_is_skipped(self, rng):
        # 2 shards but only even ids: shard 1 is empty and queries must
        # still answer (and match an unsharded build over the same set).
        vectors = rng.random((20, _DIM))
        donor = _make_db(vectors)
        view = donor.shard_view([i for i in donor.catalog.ids if i % 2 == 0])
        engine = ShardedEngine(view, 2)
        try:
            assert engine.shard_sizes() == [10, 0]
            q = rng.random((3, _DIM))
            merged, _ = engine.query_batch(q, 4, "sig")
            expected = view.query_batch(q, 4, feature="sig", precomputed=True)
            assert [_pairs(r) for r in merged] == [_pairs(r) for r in expected]
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Mutation routing and id allocation
# ---------------------------------------------------------------------------
class TestMutationRouting:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_adds_route_by_id_hash_and_ids_match_unsharded(
        self, base_vectors, rng, shards
    ):
        sharded = _make_db(base_vectors)
        reference = _make_db(base_vectors)
        with QueryScheduler(sharded, shards=shards) as test, QueryScheduler(
            reference
        ) as ref:
            new = rng.random((10, _DIM))
            got = test.submit_add(new).result(timeout=10)
            expected = ref.submit_add(new).result(timeout=10)
            assert got.ids == expected.ids  # global allocation matches
            for shard_index, shard in enumerate(test.engine.shards):
                for image_id in shard.catalog.ids:
                    assert shard_of(image_id, shards) == shard_index
            # Sequential ids round-robin: shard sizes stay balanced.
            sizes = test.engine.shard_sizes()
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == _N + 10

    def test_remove_routes_and_validates_globally(self, base_vectors):
        sharded = _make_db(base_vectors)
        with QueryScheduler(sharded, shards=4) as test:
            removed = test.submit_remove([0, 5, 10]).result(timeout=10)
            assert removed.ids == [0, 5, 10]
            assert test.n_items == _N - 3
            # Unknown id fails the whole mutation; nothing changes
            # (CatalogError, exactly like unsharded ``remove``).
            with pytest.raises(CatalogError):
                test.submit_remove([1, 99_999]).result(timeout=10)
            assert test.n_items == _N - 3
            assert 1 in test.engine.shards[shard_of(1, 4)].catalog.ids


# ---------------------------------------------------------------------------
# Randomized interleaving parity (the tentpole's end-to-end contract)
# ---------------------------------------------------------------------------
class TestInterleavedParity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_random_query_mutation_interleaving_bit_identical(self, rng, shards):
        base = rng.random((60, _DIM))
        sharded = _make_db(base, linear=True)
        reference = _make_db(base, linear=True)
        live_ids = list(range(60))

        with QueryScheduler(sharded, cache_size=0, shards=shards) as test, (
            QueryScheduler(reference, cache_size=0)
        ) as ref:
            for step in range(80):
                op = rng.choice(["knn", "range", "add", "remove"], p=[0.4, 0.2, 0.25, 0.15])
                if op == "remove" and len(live_ids) <= 10:
                    op = "add"
                if op == "knn":
                    q = rng.random(_DIM)
                    k = int(rng.integers(1, 12))
                    served = test.submit_query(q, k).result(timeout=10)
                    expected = ref.submit_query(q, k).result(timeout=10)
                    assert _pairs(served.results) == _pairs(expected.results), step
                    assert (
                        served.stats.distance_computations
                        == expected.stats.distance_computations
                    ), step
                elif op == "range":
                    q = rng.random(_DIM)
                    radius = float(rng.uniform(0.4, 1.4))
                    served = test.submit_range(q, radius).result(timeout=10)
                    expected = ref.submit_range(q, radius).result(timeout=10)
                    assert _pairs(served.results) == _pairs(expected.results), step
                elif op == "add":
                    rows = rng.random((int(rng.integers(1, 4)), _DIM))
                    got = test.submit_add(rows).result(timeout=10)
                    want = ref.submit_add(rows).result(timeout=10)
                    assert got.ids == want.ids, step
                    live_ids.extend(got.ids)
                else:
                    picks = rng.choice(
                        live_ids, size=int(rng.integers(1, 3)), replace=False
                    )
                    picks = [int(p) for p in picks]
                    got = test.submit_remove(picks).result(timeout=10)
                    want = ref.submit_remove(picks).result(timeout=10)
                    assert got.ids == want.ids, step
                    live_ids = [i for i in live_ids if i not in picks]

            # Final state parity: the sharded engine equals a fresh
            # unsharded build over the surviving item set.
            fresh = reference.shard_view(sorted(live_ids))
            probes = rng.random((8, _DIM))
            final, _ = test.engine.query_batch(probes, 9, "sig")
            direct = fresh.query_batch(probes, 9, feature="sig", precomputed=True)
            assert [_pairs(r) for r in final] == [_pairs(r) for r in direct]
            assert test.n_items == len(live_ids)

    def test_concurrent_clients_match_direct_queries(self, base_vectors, rng):
        sharded = _make_db(base_vectors)
        direct = _make_db(base_vectors)
        pool = rng.random((10, _DIM))
        outcomes: dict[tuple[int, int], object] = {}
        lock = threading.Lock()

        with QueryScheduler(sharded, cache_size=0, shards=4) as scheduler:
            def client(thread_id: int) -> None:
                thread_rng = np.random.default_rng(thread_id)
                for step in range(12):
                    pick = int(thread_rng.integers(0, len(pool)))
                    k = int(thread_rng.integers(1, 9))
                    served = scheduler.submit_query(pool[pick], k).result(timeout=30)
                    with lock:
                        outcomes[(thread_id, step)] = (pick, k, served)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert len(outcomes) == 8 * 12
        for pick, k, served in outcomes.values():
            assert _pairs(served.results) == _pairs(direct.query(pool[pick], k))


# ---------------------------------------------------------------------------
# Per-shard cache stamps (the tuple-generation regression, end to end)
# ---------------------------------------------------------------------------
class TestShardedCacheStamps:
    def test_mutation_on_other_shard_invalidates_cached_entry(self, rng):
        # Seed so that the nearest neighbour of `target` will live on
        # shard 1 after the add; the cached entry was computed under
        # stamp (g0, g1) and the add moves only shard 1's slot.
        base = rng.random((20, _DIM))
        db = _make_db(base)
        target = rng.random(_DIM)
        with QueryScheduler(db, shards=2, max_wait_ms=0.0) as scheduler:
            first = scheduler.submit_query(target, 3).result(timeout=10)
            assert not first.cache_hit
            hit = scheduler.submit_query(target, 3).result(timeout=10)
            assert hit.cache_hit

            # Insert one vector equal to the query itself: distance 0,
            # must appear at rank 1 in any fresh answer.  One add bumps
            # every shard it routes to — a single row lands on exactly
            # one shard, so exactly one tuple slot moves.
            before = scheduler.generations()["sig"]
            added = scheduler.submit_add(target[None, :]).result(timeout=10)
            after = added.generations["sig"]
            moved = [i for i in range(2) if before[i] != after[i]]
            assert len(moved) == 1  # one-shard mutation, the trap case

            invalidations_before = scheduler.cache.invalidations
            fresh = scheduler.submit_query(target, 3).result(timeout=10)
            assert not fresh.cache_hit  # stale entry evicted, not served
            assert scheduler.cache.invalidations == invalidations_before + 1
            assert fresh.results[0].image_id == added.ids[0]
            assert fresh.results[0].distance == 0.0

    def test_sharded_stats_expose_balance(self, base_vectors, rng):
        with QueryScheduler(_make_db(base_vectors), shards=4) as scheduler:
            scheduler.submit_query(rng.random(_DIM), 3).result(timeout=10)
            stats = scheduler.stats()
            assert stats.n_shards == 4
            assert len(stats.shard_sizes) == 4
            assert sum(stats.shard_sizes) == _N
            assert len(stats.shard_requests) == 4
            assert sum(stats.shard_requests) >= 4  # one scatter hit all


# ---------------------------------------------------------------------------
# Stress: slow shard, bounded queue, rate limiting
# ---------------------------------------------------------------------------
class TestStressAndAdmission:
    def test_sixteen_clients_slow_shard_no_deadlock(self, base_vectors, rng):
        db = _make_db(base_vectors)
        scheduler = QueryScheduler(
            db, cache_size=0, shards=4, max_queue=64, max_wait_ms=0.5
        )
        # Make shard 2 pathologically slow: every scatter waits on it,
        # which is exactly where a gather deadlock would surface.
        slow = scheduler.engine.shards[2]
        original = slow.query_batch

        def dawdle(*args, **kwargs):
            time.sleep(0.01)
            return original(*args, **kwargs)

        slow.query_batch = dawdle  # instance attribute shadows the method
        pool = rng.random((6, _DIM))
        errors: list[Exception] = []
        resolved = []
        lock = threading.Lock()
        max_depth = 0

        def client(thread_id: int) -> None:
            nonlocal max_depth
            thread_rng = np.random.default_rng(100 + thread_id)
            for _ in range(8):
                pick = int(thread_rng.integers(0, len(pool)))
                try:
                    served = scheduler.submit_query(pool[pick], 4).result(timeout=60)
                except ServeError as error:
                    with lock:
                        errors.append(error)
                    continue
                with lock:
                    resolved.append(served)
                    max_depth = max(max_depth, scheduler.stats().queue_depth)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        scheduler.close(timeout=60)

        # Every submission resolved one way or the other — no deadlock,
        # no stranded future — and the queue never exceeded its bound.
        assert len(resolved) + len(errors) == 16 * 8
        assert max_depth <= 64
        assert all("queue full" in str(e) for e in errors)
        direct = _make_db(base_vectors)
        sample = resolved[0]
        # Spot-check parity survived the slow shard.
        for served in resolved[:10]:
            matches = any(
                _pairs(served.results) == _pairs(direct.query(q, 4)) for q in pool
            )
            assert matches
        assert sample.stats is not None

    def test_rate_limit_fails_fast_with_distinct_error(self, base_vectors, rng):
        db = _make_db(base_vectors)
        with QueryScheduler(
            db, shards=2, rate_limit_qps=1.0, rate_limit_burst=2.0, cache_size=0
        ) as scheduler:
            q = rng.random(_DIM)
            scheduler.submit_query(q, 3).result(timeout=10)
            scheduler.submit_query(q, 3).result(timeout=10)
            started = time.monotonic()
            with pytest.raises(RateLimitError):
                scheduler.submit_query(q, 3)
            elapsed = time.monotonic() - started
            assert elapsed < 0.5  # fail fast, never queue behind the bucket
            assert scheduler.stats().rate_limited >= 1
            # Throttled is not rejected-at-queue: distinct counters.
            assert scheduler.stats().rejected == 0
            # The bucket refills: a later request is admitted again.
            time.sleep(1.1)
            served = scheduler.submit_query(q, 3).result(timeout=10)
            assert len(served.results) == 3

    def test_token_bucket_refill_and_burst(self):
        bucket = TokenBucket(rate=1000.0, burst=3.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        time.sleep(0.01)  # 1000/s refills ~10 tokens, capped at burst
        assert bucket.try_acquire()
        with pytest.raises(ServeError):
            TokenBucket(rate=0.0)
        with pytest.raises(ServeError):
            TokenBucket(rate=1.0, burst=0.5)


# ---------------------------------------------------------------------------
# HTTP surface: /healthz shards, /stats balance, /metrics exposition, 429
# ---------------------------------------------------------------------------
class TestShardedHTTP:
    def test_sharded_server_end_to_end(self, base_vectors, rng):
        db = _make_db(base_vectors)
        with QueryServer(db, port=0, shards=2) as server:
            host, port = server.address
            client = ServiceClient(host, port)
            health = client.wait_until_ready()
            assert health["shards"] == 2
            assert health["images"] == _N
            assert all(
                isinstance(stamp, list) and len(stamp) == 2
                for stamp in health["generations"].values()
            )

            answer = client.query(rng.random(_DIM), k=4)
            assert len(answer["results"]) == 4

            added = client.add(vectors=rng.random((2, _DIM)))
            assert len(added["ids"]) == 2
            assert client.healthz()["images"] == _N + 2

            stats = client.stats()
            assert stats["n_shards"] == 2
            assert sum(stats["shard_sizes"]) == _N + 2
            assert len(stats["shard_requests"]) == 2

            body = client.metrics()
            assert 'repro_request_latency_seconds_bucket{route="knn",le="+Inf"}' in body
            assert "repro_shard_items{shard=" in body
            assert "repro_queue_depth" in body
            assert 'repro_requests_total{route="add"} 1' in body

    def test_rate_limited_request_gets_429(self, base_vectors, rng):
        db = _make_db(base_vectors)
        with QueryServer(
            db, port=0, shards=2, rate_limit_qps=0.5, rate_limit_burst=1.0
        ) as server:
            host, port = server.address
            client = ServiceClient(host, port)
            client.wait_until_ready()
            q = rng.random(_DIM)
            client.query(q, k=3)
            with pytest.raises(ServeError, match="rate limit"):
                client.query(q, k=3)
