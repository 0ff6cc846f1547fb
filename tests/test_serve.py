"""The serving layer's contracts: parity, coalescing, caching, stats.

The pinned guarantees (see ``repro/serve/scheduler.py``):

* **concurrency parity** — every result served through the scheduler,
  under any interleaving of N threads x M requests, is bit-identical
  (ids, distance floats, tie-breaks, cost counters) to calling
  ``ImageDatabase.query`` / ``range_query`` directly;
* **no dropped or duplicated requests** — one resolved future per
  submission, exactly;
* **cache semantics** — identical resubmissions short-circuit through
  the LRU, hit/miss counters are exact, and hits return the same
  results the engine produced;
* **backpressure and lifecycle** — the bounded admission queue rejects
  loudly, close() drains, submissions after close fail.
"""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.errors import QueryError, ServeError
from repro.features.base import PresetSignature
from repro.features.moments import ColorMoments
from repro.features.pipeline import FeatureSchema
from repro.image import synth
from repro.serve.cache import ResultCache
from repro.serve.scheduler import QueryScheduler, ServedResult
from repro.serve.stats import LatencyWindow, ServiceStats

_DIM = 8
_N = 140


@pytest.fixture
def vector_db(rng):
    """A seeded vector-only database under the default VP-tree."""
    db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
    db.add_vectors(rng.random((_N, _DIM)))
    db.build_indexes()
    return db


def _results_equal(served, direct):
    return [(r.image_id, r.distance) for r in served] == [
        (r.image_id, r.distance) for r in direct
    ]


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_hit_after_put_and_counters(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        assert cache.get(key) is None
        cache.put(key, [])
        assert cache.get(key) == []
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self, rng):
        cache = ResultCache(2)
        keys = [cache.key("knn", "sig", k, rng.random(_DIM)) for k in range(3)]
        cache.put(keys[0], [])
        cache.put(keys[1], [])
        assert cache.get(keys[0]) == []  # refresh 0 -> 1 becomes LRU
        cache.put(keys[2], [])
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) == []
        assert len(cache) == 2

    def test_quantization_merges_float_noise(self, rng):
        cache = ResultCache(4, quantize_decimals=6)
        vector = rng.random(_DIM)
        jittered = vector + 1e-9
        assert cache.key("knn", "sig", 5, vector) == cache.key(
            "knn", "sig", 5, jittered
        )
        exact = ResultCache(4, quantize_decimals=None)
        assert exact.key("knn", "sig", 5, vector) != exact.key(
            "knn", "sig", 5, jittered
        )

    def test_key_separates_kind_feature_and_parameter(self, rng):
        cache = ResultCache(4)
        vector = rng.random(_DIM)
        keys = {
            cache.key("knn", "sig", 5, vector),
            cache.key("knn", "sig", 6, vector),
            cache.key("range", "sig", 5.0, vector),
            cache.key("knn", "other", 5, vector),
        }
        assert len(keys) == 4

    def test_negative_zero_folds_into_zero(self):
        cache = ResultCache(4)
        a = np.zeros(_DIM)
        b = np.zeros(_DIM)
        b[0] = -0.0
        assert cache.key("knn", "sig", 5, a) == cache.key("knn", "sig", 5, b)

    def test_disabled_cache_stores_nothing(self, rng):
        cache = ResultCache(0)
        assert not cache.enabled
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [])
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ServeError, match="capacity"):
            ResultCache(-1)
        with pytest.raises(ServeError, match="quantize"):
            ResultCache(4, quantize_decimals=-2)

    def test_returned_list_is_a_copy(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [])
        first = cache.get(key)
        first.append("garbage")
        assert cache.get(key) == []

    def test_capacity_one_evicts_on_every_new_key(self, rng):
        # The degenerate LRU: each put of a new key displaces the sole
        # occupant, and refreshing via get keeps the occupant in place.
        cache = ResultCache(1)
        first = cache.key("knn", "sig", 5, rng.random(_DIM))
        second = cache.key("knn", "sig", 6, rng.random(_DIM))
        cache.put(first, [])
        assert cache.get(first) == []
        cache.put(second, [])
        assert len(cache) == 1
        assert cache.get(first) is None  # displaced
        assert cache.get(second) == []
        # Re-putting the same key is an update, not an eviction.
        cache.put(second, [])
        assert len(cache) == 1 and cache.get(second) == []

    def test_tuple_stamp_single_shard_movement_invalidates(self, rng):
        # Regression: sharded serving stamps entries with the *tuple* of
        # per-shard generations.  A mutation that touches only one shard
        # moves one tuple slot — (1, 0) -> (1, 1) — and must invalidate,
        # even though a scalar collapse (max, say) would be unchanged at
        # 1 and falsely revalidate the entry.
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], generation=(1, 0))
        assert cache.get(key, (1, 0)) == []
        assert max((1, 0)) == max((1, 1))  # the trap a scalar stamp falls into
        assert cache.get(key, (1, 1)) is None
        assert cache.invalidations == 1
        assert len(cache) == 0  # stale entry evicted, not retained

    def test_tuple_stamp_equal_tuples_hit(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], generation=(3, 7, 2))
        assert cache.get(key, (3, 7, 2)) == []
        assert cache.invalidations == 0

    def test_same_digest_different_kind_never_collides(self):
        # k=5 and radius=5.0 over the same vector produce the same
        # digest, but kind and parameter live in the key tuple itself:
        # the two entries must coexist.
        cache = ResultCache(4)
        vector = np.ones(_DIM)
        knn_key = cache.key("knn", "sig", 5, vector)
        range_key = cache.key("range", "sig", 5.0, vector)
        assert knn_key[3] == range_key[3]  # identical vector digest
        assert knn_key != range_key
        cache.put(knn_key, [])
        assert cache.get(range_key) is None
        cache.put(range_key, [])
        assert len(cache) == 2
        assert cache.get(knn_key) == [] and cache.get(range_key) == []

    def test_counters_survive_clear(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], generation=1)
        assert cache.get(key, generation=1) == []
        cache.get(key, generation=2)  # stale -> invalidation + miss
        cache.clear()
        assert len(cache) == 0
        # Counters are monotonic service telemetry: clear() drops
        # entries, never history.
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.invalidations == 1
        assert cache.hit_rate == 0.5
        # And the cleared cache keeps counting from where it left off.
        assert cache.get(key) is None
        assert cache.misses == 2

    def test_generation_mismatch_evicts_and_counts(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], generation=3)
        assert cache.get(key, generation=3) == []
        assert cache.get(key, generation=4) is None  # stale: evicted
        assert cache.invalidations == 1
        assert len(cache) == 0
        # Recomputed under the new generation, it serves again.
        cache.put(key, [], generation=4)
        assert cache.get(key, generation=4) == []

    def test_unstamped_entries_ignore_generations(self, rng):
        # Static-snapshot compatibility: entries stored without a stamp
        # (and lookups without one) behave exactly as before.
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [])
        assert cache.get(key, generation=7) == []
        cache.put(key, [], generation=7)
        assert cache.get(key) == []  # lookup without a stamp: no check
        assert cache.invalidations == 0


# ---------------------------------------------------------------------------
# Scheduler: the concurrency parity suite
# ---------------------------------------------------------------------------
class TestSchedulerParityUnderLoad:
    N_THREADS = 8
    REQUESTS_PER_THREAD = 15

    def test_knn_and_range_parity_no_drops_no_duplicates(self, vector_db, rng):
        # A mixed workload: repeated vectors (cache hits), two k values,
        # and interleaved range requests — every served answer must be
        # bit-identical to the direct scalar call.
        pool = rng.random((10, _DIM))
        plans = []
        plan_rng = np.random.default_rng(99)
        for _ in range(self.N_THREADS):
            thread_plan = []
            for _ in range(self.REQUESTS_PER_THREAD):
                pick = int(plan_rng.integers(0, len(pool)))
                if plan_rng.random() < 0.3:
                    thread_plan.append(("range", pick, 0.8))
                else:
                    thread_plan.append(("knn", pick, int(plan_rng.integers(3, 6))))
            plans.append(thread_plan)

        outcomes: dict[tuple[int, int], ServedResult] = {}
        lock = threading.Lock()
        scheduler = QueryScheduler(vector_db, max_batch=8, max_wait_ms=1.0)

        def worker(thread_id: int) -> None:
            for step, (kind, pick, parameter) in enumerate(plans[thread_id]):
                if kind == "knn":
                    future = scheduler.submit_query(pool[pick], parameter)
                else:
                    future = scheduler.submit_range(pool[pick], parameter)
                served = future.result(timeout=30)
                with lock:
                    outcomes[(thread_id, step)] = served

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        scheduler.close()

        # No dropped or duplicated requests: exactly one outcome per plan
        # entry, and the aggregate counters agree.
        assert len(outcomes) == self.N_THREADS * self.REQUESTS_PER_THREAD
        stats = scheduler.stats()
        assert stats.submitted == len(outcomes)
        assert stats.completed == len(outcomes)
        assert stats.rejected == 0
        assert stats.queue_depth == 0

        # Bit-identical parity, request by request.
        for (thread_id, step), served in outcomes.items():
            kind, pick, parameter = plans[thread_id][step]
            if kind == "knn":
                direct = vector_db.query(pool[pick], parameter)
            else:
                direct = vector_db.range_query(pool[pick], parameter)
            assert _results_equal(served.results, direct), (
                f"thread {thread_id} step {step} ({kind}) diverged"
            )

        # Cache hits + engine executions partition the workload.
        assert stats.cache_hits + stats.cache_misses == len(outcomes)
        assert stats.cache_hits > 0  # 10 distinct queries, 120 requests

    def test_per_request_stats_attribution_within_a_group(self, vector_db, rng):
        # Stage four requests before the worker starts: they form one
        # batch and one engine group, yet each future carries exactly the
        # counters its query costs when run alone.
        scheduler = QueryScheduler(
            vector_db, max_batch=4, cache_size=0, autostart=False
        )
        vectors = rng.random((4, _DIM))
        futures = [scheduler.submit_query(vector, 5) for vector in vectors]
        scheduler.start()
        served = [future.result(timeout=10) for future in futures]
        scheduler.close()
        assert [outcome.batch_size for outcome in served] == [4, 4, 4, 4]
        assert scheduler.stats().mean_batch_size == pytest.approx(4.0)
        for vector, outcome in zip(vectors, served):
            vector_db.query(vector, 5)
            expected = vector_db.index_for("sig").last_stats
            assert outcome.stats == expected
            assert not outcome.cache_hit


class TestSchedulerDedup:
    def test_in_flight_duplicates_evaluated_once_and_fanned_out(
        self, vector_db, rng
    ):
        # Stage a formed batch by hand (worker parked, cache off so every
        # duplicate actually reaches the engine group): 6 requests over 2
        # distinct vectors must execute as one engine call of 2 rows.
        scheduler = QueryScheduler(
            vector_db, max_batch=8, cache_size=0, autostart=False
        )
        pool = rng.random((2, _DIM))
        picks = [0, 1, 0, 0, 1, 0]
        futures = [scheduler.submit_query(pool[pick], 5) for pick in picks]
        scheduler.start()
        served = [future.result(timeout=10) for future in futures]
        scheduler.close()

        # One engine row per distinct vector: batch_size reflects the
        # deduped kernel call, and the counter records the riders.
        assert [outcome.batch_size for outcome in served] == [2] * 6
        assert scheduler.stats().dedup_hits == 4
        assert all(not outcome.cache_hit for outcome in served)

        # Bit-identical fan-out: every duplicate equals the direct call.
        for pick, outcome in zip(picks, served):
            direct = vector_db.query(pool[pick], 5)
            assert _results_equal(outcome.results, direct)
            vector_db.query(pool[pick], 5)
            assert outcome.stats == vector_db.index_for("sig").last_stats

    def test_dedup_respects_parameter_boundaries(self, vector_db, rng):
        # The same vector under different k (or kind) is a different
        # request: groups never merge across parameters.
        scheduler = QueryScheduler(
            vector_db, max_batch=8, cache_size=0, autostart=False
        )
        vector = rng.random(_DIM)
        k5 = scheduler.submit_query(vector, 5)
        k6 = scheduler.submit_query(vector, 6)
        ranged = scheduler.submit_range(vector, 0.8)
        scheduler.start()
        outcomes = [f.result(timeout=10) for f in (k5, k6, ranged)]
        scheduler.close()
        assert scheduler.stats().dedup_hits == 0
        assert [outcome.batch_size for outcome in outcomes] == [1, 1, 1]
        assert len(outcomes[0].results) == 5
        assert len(outcomes[1].results) == 6

    def test_dedup_under_concurrent_duplicate_storm(self, vector_db, rng):
        # Many threads hammer a tiny query pool with the cache disabled;
        # whatever batches form, every response must be bit-identical to
        # the direct call and the dedup counter must account exactly for
        # the requests that shared an engine row.
        pool = rng.random((3, _DIM))
        n_threads, per_thread = 8, 12
        outcomes: dict[tuple[int, int], ServedResult] = {}
        lock = threading.Lock()
        scheduler = QueryScheduler(
            vector_db, max_batch=16, max_wait_ms=2.0, cache_size=0
        )
        plan_rng = np.random.default_rng(7)
        plans = [
            [int(plan_rng.integers(0, 3)) for _ in range(per_thread)]
            for _ in range(n_threads)
        ]

        def worker(thread_id: int) -> None:
            for step, pick in enumerate(plans[thread_id]):
                served = scheduler.submit_query(pool[pick], 4).result(timeout=30)
                with lock:
                    outcomes[(thread_id, step)] = served

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        scheduler.close()

        assert len(outcomes) == n_threads * per_thread
        direct = {pick: vector_db.query(pool[pick], 4) for pick in range(3)}
        for (thread_id, step), served in outcomes.items():
            assert _results_equal(served.results, direct[plans[thread_id][step]])
        stats = scheduler.stats()
        assert stats.completed == len(outcomes)
        # 96 requests over 3 distinct vectors: unless every batch formed
        # with a single request, duplicates must have shared rows.
        if stats.mean_batch_size > 1.0:
            assert stats.dedup_hits > 0


class TestSchedulerCache:
    def test_hit_short_circuits_and_is_counted(self, vector_db, rng):
        scheduler = QueryScheduler(vector_db, max_batch=4)
        vector = rng.random(_DIM)
        first = scheduler.submit_query(vector, 5).result(timeout=10)
        second = scheduler.submit_query(vector, 5).result(timeout=10)
        scheduler.close()
        assert not first.cache_hit and second.cache_hit
        assert second.stats is None and second.batch_size == 1
        assert _results_equal(second.results, first.results)
        stats = scheduler.stats()
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert stats.completed == 2

    def test_different_k_does_not_hit(self, vector_db, rng):
        scheduler = QueryScheduler(vector_db, max_batch=4)
        vector = rng.random(_DIM)
        scheduler.submit_query(vector, 5).result(timeout=10)
        other = scheduler.submit_query(vector, 6).result(timeout=10)
        scheduler.close()
        assert not other.cache_hit

    def test_cache_disabled(self, vector_db, rng):
        scheduler = QueryScheduler(vector_db, cache_size=0)
        vector = rng.random(_DIM)
        scheduler.submit_query(vector, 5).result(timeout=10)
        second = scheduler.submit_query(vector, 5).result(timeout=10)
        scheduler.close()
        assert not second.cache_hit
        assert scheduler.stats().cache_hits == 0


class TestSchedulerLifecycle:
    def test_bounded_admission_rejects_when_full(self, vector_db, rng):
        # autostart=False keeps the worker parked, so the queue fills
        # deterministically; start() then drains everything admitted.
        scheduler = QueryScheduler(
            vector_db, max_queue=2, cache_size=0, autostart=False
        )
        futures = [
            scheduler.submit_query(rng.random(_DIM), 3) for _ in range(2)
        ]
        with pytest.raises(ServeError, match="queue full"):
            scheduler.submit_query(rng.random(_DIM), 3)
        assert scheduler.stats().rejected == 1
        scheduler.start()
        for future in futures:
            assert isinstance(future.result(timeout=10), ServedResult)
        scheduler.close()

    def test_close_drains_then_rejects(self, vector_db, rng):
        scheduler = QueryScheduler(vector_db, max_wait_ms=0.0)
        future = scheduler.submit_query(rng.random(_DIM), 3)
        scheduler.close()
        assert isinstance(future.result(timeout=10), ServedResult)
        with pytest.raises(ServeError, match="closed"):
            scheduler.submit_query(rng.random(_DIM), 3)
        scheduler.close()  # idempotent

    def test_close_before_start_fails_staged_requests(self, vector_db, rng):
        # A full queue with no worker must not deadlock close(); the
        # staged futures fail loudly instead of hanging their callers.
        scheduler = QueryScheduler(
            vector_db, max_queue=2, cache_size=0, autostart=False
        )
        futures = [scheduler.submit_query(rng.random(_DIM), 3) for _ in range(2)]
        scheduler.close()
        for future in futures:
            with pytest.raises(ServeError, match="closed before starting"):
                future.result(timeout=5)

    def test_context_manager(self, vector_db, rng):
        with QueryScheduler(vector_db) as scheduler:
            assert scheduler.submit_query(rng.random(_DIM), 2).result(timeout=10)
        assert scheduler.is_closed

    def test_invalid_requests_fail_at_submission(self, vector_db, rng):
        scheduler = QueryScheduler(vector_db)
        with pytest.raises(QueryError, match="k must be"):
            scheduler.submit_query(rng.random(_DIM), 0)
        with pytest.raises(QueryError, match="radius"):
            scheduler.submit_range(rng.random(_DIM), -1.0)
        with pytest.raises(QueryError, match="dim"):
            scheduler.submit_query(rng.random(_DIM + 1), 3)
        with pytest.raises(QueryError, match="unknown feature"):
            scheduler.submit_query(rng.random(_DIM), 3, feature="nope")
        scheduler.close()

    def test_empty_database_rejected(self):
        db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
        scheduler = QueryScheduler(db)
        with pytest.raises(QueryError, match="empty"):
            scheduler.submit_query(np.zeros(_DIM), 1)
        scheduler.close()

    def test_bad_configuration_rejected(self, vector_db):
        with pytest.raises(ServeError, match="max_batch"):
            QueryScheduler(vector_db, max_batch=0)
        with pytest.raises(ServeError, match="max_wait_ms"):
            QueryScheduler(vector_db, max_wait_ms=-1.0)
        with pytest.raises(ServeError, match="max_queue"):
            QueryScheduler(vector_db, max_queue=0)

    def test_image_queries_ride_the_scheduler(self, rng):
        # An image-backed schema: submission extracts on the caller's
        # thread and the served answer matches the direct image query.
        db = ImageDatabase(FeatureSchema([ColorMoments("rgb")]))
        for _ in range(12):
            db.add_image(synth.compose_scene(16, 16, rng))
        query = synth.compose_scene(16, 16, rng)
        with QueryScheduler(db) as scheduler:
            served = scheduler.submit_query(query, 4).result(timeout=10)
        assert _results_equal(served.results, db.query(query, 4))


# ---------------------------------------------------------------------------
# ServiceStats
# ---------------------------------------------------------------------------
class TestServiceStats:
    def test_snapshot_shape_and_serialization(self, vector_db, rng):
        scheduler = QueryScheduler(vector_db, max_batch=4)
        for _ in range(5):
            scheduler.submit_query(rng.random(_DIM), 3).result(timeout=10)
        scheduler.close()
        stats = scheduler.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.completed == 5
        assert stats.batches_formed >= 1
        assert stats.mean_batch_size >= 1.0
        assert stats.mean_group_size >= 1.0
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert stats.latency_p50_ms <= stats.latency_p95_ms or (
            stats.latency_p50_ms >= 0.0
        )
        import json

        payload = stats.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_window_percentiles_nearest_rank(self):
        window = LatencyWindow(window=16)
        for value in [0.010, 0.020, 0.030, 0.040]:
            window.observe(value)
        figures = window.figures()
        assert figures.p50_ms == pytest.approx(20.0)
        assert figures.p95_ms == pytest.approx(40.0)
        assert figures.mean_ms == pytest.approx(25.0)

    def test_window_bounds_memory(self):
        window = LatencyWindow(window=4)
        for value in range(100):
            window.observe(float(value))
        # Only the last 4 samples (96..99 s) remain in the window.
        assert window.figures().p50_ms >= 96_000.0

    def test_future_type(self, vector_db, rng):
        with QueryScheduler(vector_db) as scheduler:
            future = scheduler.submit_query(rng.random(_DIM), 2)
            assert isinstance(future, Future)
            assert isinstance(future.result(timeout=10), ServedResult)
