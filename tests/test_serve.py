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
  loudly, close() drains, submissions after close fail;
* **liveness under pressure** — 16 clients against a deliberately slow
  engine never deadlock, the admission queue stays bounded, and the
  token-bucket limiter fails fast with
  :class:`~repro.errors.RateLimitError` (HTTP 429), distinct from
  queue-full.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.db.backend import MmapBackendFactory
from repro.db.database import ImageDatabase
from repro.db.journal import JOURNAL_FILE, Journal
from repro.db.recovery import database_fingerprint
from repro.errors import QueryError, RateLimitError, ServeError
from repro.features.base import PresetSignature
from repro.features.moments import ColorMoments
from repro.features.pipeline import FeatureSchema
from repro.image import synth
from repro.index.linear import LinearScanIndex
from repro.serve.cache import ResultCache
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer
from repro.serve.metrics import validate_exposition
from repro.serve.scheduler import QueryScheduler, ServedResult, TokenBucket
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


def _make_db(vectors, *, linear=False, backend=None):
    factory = (lambda metric: LinearScanIndex(metric)) if linear else None
    db = ImageDatabase(
        FeatureSchema([PresetSignature(_DIM, "sig")]),
        index_factory=factory,
        backend=backend,
    )
    db.add_vectors(vectors)
    return db


def _run_threads(n_threads, target):
    """Run ``target(i)`` on ``n_threads`` threads at once; join them all."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _results_equal(served, direct):
    return [(r.image_id, r.distance) for r in served] == [
        (r.image_id, r.distance) for r in direct
    ]


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------
def _never(stamp, results):
    """A revalidator that never saves a stale entry."""
    return False


class TestResultCache:
    def test_hit_after_put_and_counters(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        assert cache.get(key, 0, _never) is None
        cache.put(key, [], 0)
        assert cache.get(key, 0, _never) == []
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self, rng):
        cache = ResultCache(2)
        keys = [cache.key("knn", "sig", k, rng.random(_DIM)) for k in range(3)]
        cache.put(keys[0], [], 0)
        cache.put(keys[1], [], 0)
        assert cache.get(keys[0], 0, _never) == []  # 0 refreshed, 1 is LRU
        cache.put(keys[2], [], 0)
        assert cache.get(keys[1], 0, _never) is None  # evicted
        assert cache.get(keys[0], 0, _never) == []
        assert len(cache) == 2

    def test_quantization_merges_float_noise(self, rng):
        # Keys round to 12 decimals: noise below that merges, noise
        # above it does not.
        cache = ResultCache(4)
        vector = np.round(rng.random(_DIM), 6)
        key = cache.key("knn", "sig", 5, vector)
        assert key == cache.key("knn", "sig", 5, vector + 1e-14)
        assert key != cache.key("knn", "sig", 5, vector + 1e-9)

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
        cache.put(key, [], 0)
        assert cache.get(key, 0, _never) is None
        assert len(cache) == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ServeError, match="capacity"):
            ResultCache(-1)

    def test_returned_list_is_a_copy(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], 0)
        first = cache.get(key, 0, _never)
        first.append("garbage")
        assert cache.get(key, 0, _never) == []

    def test_capacity_one_evicts_on_every_new_key(self, rng):
        # The degenerate LRU: each put of a new key displaces the sole
        # occupant, and refreshing via get keeps the occupant in place.
        cache = ResultCache(1)
        first = cache.key("knn", "sig", 5, rng.random(_DIM))
        second = cache.key("knn", "sig", 6, rng.random(_DIM))
        cache.put(first, [], 0)
        assert cache.get(first, 0, _never) == []
        cache.put(second, [], 0)
        assert len(cache) == 1
        assert cache.get(first, 0, _never) is None  # displaced
        assert cache.get(second, 0, _never) == []
        # Re-putting the same key is an update, not an eviction.
        cache.put(second, [], 0)
        assert len(cache) == 1 and cache.get(second, 0, _never) == []

    def test_tuple_stamp_equal_tuples_hit(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], (3, 7, 2))
        assert cache.get(key, (3, 7, 2), _never) == []
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
        cache.put(knn_key, [], 0)
        assert cache.get(range_key, 0, _never) is None
        cache.put(range_key, [], 0)
        assert len(cache) == 2
        assert cache.get(knn_key, 0, _never) == []
        assert cache.get(range_key, 0, _never) == []

    def test_counters_survive_clear(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], 1)
        assert cache.get(key, 1, _never) == []
        cache.get(key, 2, _never)  # stale -> invalidation + miss
        cache.clear()
        assert len(cache) == 0
        # Counters are monotonic service telemetry: clear() drops
        # entries, never history.
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.invalidations == 1
        assert cache.hit_rate == 0.5
        # And the cleared cache keeps counting from where it left off.
        assert cache.get(key, 0, _never) is None
        assert cache.misses == 2

    def test_generation_mismatch_evicts_and_counts(self, rng):
        cache = ResultCache(4)
        key = cache.key("knn", "sig", 5, rng.random(_DIM))
        cache.put(key, [], 3)
        assert cache.get(key, 3, _never) == []
        assert cache.get(key, 4, _never) is None  # stale: evicted
        assert cache.invalidations == 1
        assert len(cache) == 0
        # Recomputed under the new generation, it serves again.
        cache.put(key, [], 4)
        assert cache.get(key, 4, _never) == []


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

        _run_threads(self.N_THREADS, worker)
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
        # batch, and each future carries exactly the counters its query
        # costs when run alone.
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


class TestSchedulerGroups:
    """Requests that share one formed batch."""

    def test_duplicates_in_one_group_each_get_the_direct_answer(
        self, vector_db, rng
    ):
        # Stage a formed batch by hand (worker parked, cache off so every
        # duplicate actually reaches the engine): 6 requests over 2
        # distinct vectors, each answered by its own engine call.
        scheduler = QueryScheduler(
            vector_db, max_batch=8, cache_size=0, autostart=False
        )
        pool = rng.random((2, _DIM))
        picks = [0, 1, 0, 0, 1, 0]
        futures = [scheduler.submit_query(pool[pick], 5) for pick in picks]
        scheduler.start()
        served = [future.result(timeout=10) for future in futures]
        scheduler.close()

        assert [outcome.batch_size for outcome in served] == [6] * 6
        assert all(not outcome.cache_hit for outcome in served)

        # Every duplicate equals the direct call, stats included.
        for pick, outcome in zip(picks, served):
            direct = vector_db.query(pool[pick], 5)
            assert _results_equal(outcome.results, direct)
            assert outcome.stats == vector_db.index_for("sig").last_stats

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_vector_fails_alone_at_submission(self, vector_db, rng, bad):
        # Staged beside a good request, a non-finite vector must fail
        # its own caller, not the batch.
        scheduler = QueryScheduler(
            vector_db, max_batch=8, cache_size=0, autostart=False
        )
        good = rng.random(_DIM)
        staged = scheduler.submit_query(good, 3)
        poisoned = good.copy()
        poisoned[0] = bad
        with pytest.raises(QueryError, match="non-finite"):
            scheduler.submit_query(poisoned, 3)
        with pytest.raises(QueryError, match="non-finite"):
            scheduler.submit_range(poisoned, 0.5)
        scheduler.start()
        served = staged.result(timeout=10)
        scheduler.close()
        assert served.batch_size == 1
        assert _results_equal(served.results, vector_db.query(good, 3))

    def test_mixed_parameters_in_one_batch_each_get_their_own_answer(
        self, vector_db, rng
    ):
        # The same vector under different k (or kind) is a different
        # request: one formed batch answers each under its own parameter.
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
        assert [outcome.batch_size for outcome in outcomes] == [3, 3, 3]
        assert _results_equal(outcomes[0].results, vector_db.query(vector, 5))
        assert _results_equal(outcomes[1].results, vector_db.query(vector, 6))
        assert _results_equal(
            outcomes[2].results, vector_db.range_query(vector, 0.8)
        )

    def test_concurrent_duplicate_storm_matches_direct_calls(self, vector_db, rng):
        # Many threads hammer a tiny query pool with the cache disabled;
        # whatever batches form, every response must be bit-identical to
        # the direct call.
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

        _run_threads(n_threads, worker)
        scheduler.close()

        assert len(outcomes) == n_threads * per_thread
        direct = {pick: vector_db.query(pool[pick], 4) for pick in range(3)}
        for (thread_id, step), served in outcomes.items():
            assert _results_equal(served.results, direct[plans[thread_id][step]])
        assert scheduler.stats().completed == len(outcomes)


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


class TestBatchWindow:
    """A batch is what is already queued; nobody waits for company."""

    @staticmethod
    def _batch_form(scheduler, served):
        trace = scheduler.flight_recorder.find(served.trace_id)
        (span,) = [span for span in trace.spans if span.stage == "batch-form"]
        return span

    @staticmethod
    def _fsyncs(scheduler):
        families = validate_exposition(scheduler.render_metrics())
        samples = families["repro_journal_fsync_seconds"]["samples"]
        counts = [value for name, _, value in samples if name.endswith("_count")]
        return sum(counts)  # no sample until the first fsync

    def test_lone_request_does_not_wait_out_the_window(self, vector_db, rng):
        # One client, one request at a time: there is nothing to
        # coalesce with, so even a 500 ms window must cost nothing.
        with QueryScheduler(
            vector_db, max_wait_ms=500.0, cache_size=0
        ) as scheduler:
            for vector in rng.random((5, _DIM)):
                start = time.monotonic()
                served = scheduler.submit_query(vector, 3).result(timeout=10)
                assert time.monotonic() - start < 0.1
                assert self._batch_form(scheduler, served).duration_s < 0.05

    def test_staged_requests_drain_as_one_batch_but_nobody_waits(
        self, vector_db, rng
    ):
        scheduler = QueryScheduler(
            vector_db, max_wait_ms=500.0, cache_size=0, autostart=False
        )
        staged = [scheduler.submit_query(v, 3) for v in rng.random((2, _DIM))]
        scheduler.start()
        assert [future.result(timeout=10).batch_size for future in staged] == [2, 2]
        # Even after company, client 0's request runs at once instead of
        # waiting out the window for client 1's, which arrives 20 ms later.
        vectors = rng.random((2, _DIM))
        elapsed = {}

        def client(i: int) -> None:
            time.sleep(0.02 * i)
            start = time.monotonic()
            scheduler.submit_query(vectors[i], 3).result(timeout=10)
            elapsed[i] = time.monotonic() - start

        _run_threads(2, client)
        scheduler.close()
        assert elapsed[0] < 0.1 and elapsed[1] < 0.1

    def test_staged_mutations_drain_as_one_batch_with_one_fsync(
        self, vector_db, rng, tmp_path
    ):
        journal = Journal.create(
            tmp_path / JOURNAL_FILE, database_fingerprint(vector_db)
        )
        scheduler = QueryScheduler(
            vector_db, journal=journal, max_wait_ms=500.0, autostart=False
        )
        before = self._fsyncs(scheduler)
        staged = [scheduler.submit_add(rng.random((1, _DIM))) for _ in range(3)]
        scheduler.start()
        for future in staged:
            future.result(timeout=10)
        assert self._fsyncs(scheduler) == before + 1
        scheduler.close()


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
        with pytest.raises(QueryError, match="radius"):
            scheduler.submit_range(rng.random(_DIM), float("nan"))
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

    @pytest.mark.parametrize("max_wait_ms", [float("nan"), float("inf")])
    def test_non_finite_max_wait_rejected(self, vector_db, rng, max_wait_ms):
        # A NaN timeout parks the worker with no future resolved; if
        # construction accepts one, the bounded result() fails this
        # test instead of hanging the suite.
        vector = rng.random(_DIM)
        with pytest.raises(ServeError, match="max_wait_ms"):
            scheduler = QueryScheduler(vector_db, max_wait_ms=max_wait_ms)
            scheduler.submit_query(vector, 3).result(timeout=5)

    @pytest.mark.parametrize(
        ("setting", "match"),
        [
            ({"slow_query_ms": float("nan")}, "slow_query_ms"),
            ({"rate_limit_qps": float("nan")}, "rate"),
            ({"rate_limit_qps": float("inf")}, "rate"),
            ({"rate_limit_qps": 10.0, "rate_limit_burst": float("nan")}, "burst"),
            ({"rate_limit_qps": 10.0, "rate_limit_burst": float("inf")}, "burst"),
            ({"max_queue": float("nan")}, "max_queue"),
            ({"max_queue": float("inf")}, "max_queue"),
            ({"max_queue": 2.5}, "max_queue"),
            ({"max_batch": 2.5}, "max_batch"),
            ({"trace_depth": 2.5}, "trace_depth"),
            ({"cache_size": float("nan")}, "cache"),
            ({"cache_size": 2.5}, "cache"),
            ({"rate_limit_burst": float("nan")}, "burst"),
            ({"rate_limit_burst": 0.0}, "burst"),
            ({"rate_limit_burst": 4.0}, "burst"),
        ],
        ids=[
            "slow-nan", "qps-nan", "qps-inf", "burst-nan", "burst-inf",
            "queue-nan", "queue-inf", "queue-frac", "batch-frac",
            "trace-frac", "cache-nan", "cache-frac", "lone-burst-nan",
            "lone-burst-zero", "lone-burst",
        ],
    )
    def test_non_finite_settings_rejected(self, vector_db, setting, match):
        # Each value slips past a ``<`` bound check and silently changes
        # behaviour: every request logged as slow, throttling off or
        # refusing everything, an unbounded queue, a count truncated
        # without a word, a burst with no rate to apply it to.
        with pytest.raises(ServeError, match=match):
            QueryScheduler(vector_db, autostart=False, **setting).close()

    def test_only_one_shard_accepted(self, vector_db):
        # ``shards`` survives as a keyword that accepts only 1.
        with QueryScheduler(vector_db, shards=1) as scheduler:
            assert scheduler.n_items == _N
        with pytest.raises(ServeError, match="shards"):
            QueryScheduler(vector_db, shards=2)
        with QueryServer(vector_db, port=0, shards=1) as server:
            assert server.scheduler.n_items == _N
        with pytest.raises(ServeError, match="shards"):
            QueryServer(vector_db, port=0, shards=2)

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


# ---------------------------------------------------------------------------
# Static parity against the direct API, memory and mmap backends
# ---------------------------------------------------------------------------
class TestStaticParity:
    @pytest.mark.parametrize("linear", [False, True], ids=["vptree", "linear"])
    @pytest.mark.parametrize("backend", ["default", "mmap"])
    def test_knn_and_range_bit_identical(self, rng, tmp_path, backend, linear):
        """Served answers — ids, distance floats, tie-breaks and counted
        distances — equal the in-memory direct API's, also when the
        served database pages its cores through a tiny mmap pool."""
        mmap = backend == "mmap"
        if mmap:
            backend = MmapBackendFactory(
                tmp_path / "cores", cache_pages=2, page_records=16
            )
        else:
            backend = None  # the environment default
        base = rng.random((_N, _DIM))
        direct = _make_db(base, linear=linear, backend="memory")
        served_db = _make_db(base, linear=linear, backend=backend)
        with QueryScheduler(served_db, cache_size=0) as test:
            for q in rng.random((12, _DIM)):
                for submit, search, parameter in (
                    (test.submit_query, direct.query, 7),
                    (test.submit_range, direct.range_query, 1.1),
                ):
                    served = submit(q, parameter).result(timeout=10)
                    assert _results_equal(served.results, search(q, parameter))
                    assert (
                        served.stats.distance_computations
                        == direct.index_for("sig").last_stats.distance_computations
                    )
            stats = test.stats()
        assert stats.pool_resident <= stats.pool_capacity
        if mmap:
            assert stats.backend == "mmap"
            # The linear scan pages every block through the buffer pool
            # (tree indexes read the memmap view directly).
            assert stats.pool_misses > 0 or not linear


# ---------------------------------------------------------------------------
# Stress: concurrent clients, slow engine, bounded queue, rate limiting
# ---------------------------------------------------------------------------
class TestStressAndAdmission:
    def test_concurrent_clients_match_direct_queries(self, rng):
        base = rng.random((_N, _DIM))
        direct = _make_db(base)
        pool = rng.random((10, _DIM))
        outcomes = []  # list.append is atomic

        with QueryScheduler(_make_db(base), cache_size=0) as scheduler:
            def client(thread_id: int) -> None:
                thread_rng = np.random.default_rng(thread_id)
                for _ in range(12):
                    pick = int(thread_rng.integers(0, len(pool)))
                    k = int(thread_rng.integers(1, 9))
                    served = scheduler.submit_query(pool[pick], k).result(timeout=30)
                    outcomes.append((pick, k, served))

            _run_threads(8, client)

        assert len(outcomes) == 8 * 12
        for pick, k, served in outcomes:
            assert _results_equal(served.results, direct.query(pool[pick], k))

    def test_sixteen_clients_slow_engine_no_deadlock(self, rng):
        base = rng.random((_N, _DIM))
        db = _make_db(base)
        # Make every engine call pathologically slow: the queue fills
        # behind it, which is exactly where a deadlock would surface.
        original = db.query

        def dawdle(*args, **kwargs):
            time.sleep(0.01)
            return original(*args, **kwargs)

        db.query = dawdle  # instance attribute shadows the method
        scheduler = QueryScheduler(db, cache_size=0, max_queue=64, max_wait_ms=0.5)
        pool = rng.random((6, _DIM))
        errors, resolved, depths = [], [], []  # list.append is atomic

        def client(thread_id: int) -> None:
            thread_rng = np.random.default_rng(100 + thread_id)
            for _ in range(8):
                pick = int(thread_rng.integers(0, len(pool)))
                try:
                    served = scheduler.submit_query(pool[pick], 4).result(timeout=60)
                except ServeError as error:
                    errors.append(error)
                    continue
                resolved.append(served)
                depths.append(scheduler.stats().queue_depth)

        _run_threads(16, client)
        scheduler.close(timeout=60)

        # Every submission resolved one way or the other — no deadlock,
        # no stranded future — and the queue never exceeded its bound.
        assert len(resolved) + len(errors) == 16 * 8
        assert max(depths) <= 64
        assert all("queue full" in str(e) for e in errors)
        direct = _make_db(base)
        # Spot-check parity survived the slow engine.
        for served in resolved[:10]:
            assert any(
                _results_equal(served.results, direct.query(q, 4)) for q in pool
            )
        assert resolved[0].stats is not None

    def test_rate_limit_fails_fast_with_distinct_error(self, vector_db, rng):
        with QueryScheduler(
            vector_db, rate_limit_qps=1.0, rate_limit_burst=2.0, cache_size=0
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

    def test_rate_limited_request_gets_429(self, vector_db, rng):
        with QueryServer(
            vector_db, port=0, rate_limit_qps=0.5, rate_limit_burst=1.0
        ) as server:
            host, port = server.address
            client = ServiceClient(host, port)
            client.wait_until_ready()
            q = rng.random(_DIM)
            client.query(q, k=3)
            with pytest.raises(ServeError, match="rate limit"):
                client.query(q, k=3)
