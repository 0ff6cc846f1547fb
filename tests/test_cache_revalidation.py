"""Selective cache revalidation: check-on-hit must equal a fresh query.

ISSUE 9 tentpole (c): a generation-mismatched cache entry is no longer
evicted unconditionally — the scheduler first tries to *prove* it
unchanged from the scheduler's bounded mutation delta log (every inserted
item strictly after the kth result under ``(distance, id)``, no cached
result id removed; range: no insert inside the closed ball).  These
tests drive the adversarial boundaries:

* an insert **exactly at the kth distance** — the ``(distance, id)``
  tie-break decides, and the allocator's monotonically increasing ids
  mean the newcomer loses the tie and the entry revalidates;
* an insert strictly inside the kth distance — must invalidate;
* a cached result id removed — must invalidate; a non-result id
  removed — revalidates;
* range inserts exactly on the closed ball boundary — must invalidate
  (``distance <= radius`` is reported);
* delta-window overflow / unknown ranges — must refuse to prove
  (``None`` → invalidate), never guess;
* a randomized end-to-end stream where **every** served result is
  compared against a fresh build over the live item set — zero stale
  serves, by construction.

Distances are engineered exact-in-float64 (integer coordinates on unit
axes), so "exactly at the kth distance" means bitwise equality, not
approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index import LinearScanIndex, VPTree
from repro.metrics.minkowski import EuclideanDistance
from repro.serve import QueryScheduler
from repro.serve import cache as cache_module
from repro.serve.cache import CacheCounters, MutationDeltaLog, ResultCache

DIM = 4


def _axis_vector(axis: int, scale: float) -> np.ndarray:
    vector = np.zeros(DIM)
    vector[axis] = scale
    return vector


def _make_db(vectors, factory=None):
    db = ImageDatabase(
        FeatureSchema([PresetSignature(DIM, "sig")]),
        index_factory=factory or (lambda metric: VPTree(metric, leaf_size=4)),
    )
    db.add_vectors(np.asarray(vectors, dtype=np.float64))
    db.build_indexes()
    return db


def _pairs(results):
    return [(r.image_id, r.distance) for r in results]


@pytest.fixture
def ladder_scheduler():
    """Items at exact distances 1..5 from the origin (ids 0..4)."""
    db = _make_db([_axis_vector(0, float(i)) for i in range(1, 6)])
    scheduler = QueryScheduler(db, max_batch=4)
    yield db, scheduler
    scheduler.close()


class TestKnnRevalidationBoundaries:
    def test_insert_exactly_at_kth_distance_revalidates(self, ladder_scheduler):
        db, scheduler = ladder_scheduler
        query = np.zeros(DIM)
        first = scheduler.submit_query(query, 3).result(timeout=10)
        assert _pairs(first.results) == [(0, 1.0), (1, 2.0), (2, 3.0)]

        # New item at distance exactly 3.0 — ties the kth result.  Its
        # id (5) is larger than the kth's (2), so under the engine's
        # (distance, id) ordering it ranks strictly after: provably
        # outside the top-3, entry revalidates.
        scheduler.submit_add(_axis_vector(1, 3.0)[None, :]).result(timeout=10)
        served = scheduler.submit_query(query, 3).result(timeout=10)
        assert served.cache_hit
        assert scheduler.cache.revalidations == 1
        assert _pairs(served.results) == _pairs(first.results)
        assert _pairs(served.results) == _pairs(db.query(query, 3))

    def test_insert_strictly_inside_kth_distance_invalidates(
        self, ladder_scheduler
    ):
        db, scheduler = ladder_scheduler
        query = np.zeros(DIM)
        scheduler.submit_query(query, 3).result(timeout=10)

        added = scheduler.submit_add(_axis_vector(1, 2.5)[None, :]).result(
            timeout=10
        )
        served = scheduler.submit_query(query, 3).result(timeout=10)
        assert not served.cache_hit
        assert scheduler.cache.invalidations == 1
        assert scheduler.cache.revalidations == 0
        assert _pairs(served.results) == [
            (0, 1.0),
            (1, 2.0),
            (added.ids[0], 2.5),
        ]
        assert _pairs(served.results) == _pairs(db.query(query, 3))

    def test_removing_a_cached_result_id_invalidates(self, ladder_scheduler):
        db, scheduler = ladder_scheduler
        query = np.zeros(DIM)
        scheduler.submit_query(query, 3).result(timeout=10)

        scheduler.submit_remove([1]).result(timeout=10)  # the 2.0 result
        served = scheduler.submit_query(query, 3).result(timeout=10)
        assert not served.cache_hit
        assert scheduler.cache.invalidations == 1
        assert _pairs(served.results) == [(0, 1.0), (2, 3.0), (3, 4.0)]
        assert _pairs(served.results) == _pairs(db.query(query, 3))

    def test_removing_a_non_result_id_revalidates(self, ladder_scheduler):
        db, scheduler = ladder_scheduler
        query = np.zeros(DIM)
        first = scheduler.submit_query(query, 3).result(timeout=10)

        scheduler.submit_remove([4]).result(timeout=10)  # distance 5.0
        served = scheduler.submit_query(query, 3).result(timeout=10)
        assert served.cache_hit
        assert scheduler.cache.revalidations == 1
        assert _pairs(served.results) == _pairs(first.results)
        assert _pairs(served.results) == _pairs(db.query(query, 3))

    def test_short_knn_list_never_revalidates_after_insert(self):
        # k exceeds the corpus: any insert could extend the cached list,
        # so the proof must refuse even for a "far" insert.
        db = _make_db([_axis_vector(0, 1.0), _axis_vector(0, 2.0)])
        scheduler = QueryScheduler(db, max_batch=4)
        try:
            query = np.zeros(DIM)
            first = scheduler.submit_query(query, 5).result(timeout=10)
            assert len(first.results) == 2
            scheduler.submit_add(_axis_vector(1, 50.0)[None, :]).result(
                timeout=10
            )
            served = scheduler.submit_query(query, 5).result(timeout=10)
            assert not served.cache_hit
            assert scheduler.cache.invalidations == 1
            assert len(served.results) == 3
            assert _pairs(served.results) == _pairs(db.query(query, 5))
        finally:
            scheduler.close()


class TestRangeRevalidationBoundaries:
    def test_insert_on_closed_ball_boundary_invalidates(self, ladder_scheduler):
        db, scheduler = ladder_scheduler
        query = np.zeros(DIM)
        first = scheduler.submit_range(query, 3.0).result(timeout=10)
        assert _pairs(first.results) == [(0, 1.0), (1, 2.0), (2, 3.0)]

        # Exactly on the boundary: range semantics are a closed ball
        # (distance <= radius reports), so the entry genuinely changed.
        added = scheduler.submit_add(_axis_vector(1, 3.0)[None, :]).result(
            timeout=10
        )
        served = scheduler.submit_range(query, 3.0).result(timeout=10)
        assert not served.cache_hit
        assert scheduler.cache.invalidations == 1
        assert (added.ids[0], 3.0) in _pairs(served.results)
        assert _pairs(served.results) == _pairs(db.range_query(query, 3.0))

    def test_insert_outside_ball_revalidates(self, ladder_scheduler):
        db, scheduler = ladder_scheduler
        query = np.zeros(DIM)
        first = scheduler.submit_range(query, 3.0).result(timeout=10)

        scheduler.submit_add(_axis_vector(1, 4.0)[None, :]).result(timeout=10)
        served = scheduler.submit_range(query, 3.0).result(timeout=10)
        assert served.cache_hit
        assert scheduler.cache.revalidations == 1
        assert _pairs(served.results) == _pairs(first.results)
        assert _pairs(served.results) == _pairs(db.range_query(query, 3.0))


class TestDeltaLogBounds:
    def test_between_refuses_ranges_outside_window(self, monkeypatch):
        monkeypatch.setattr(cache_module, "DELTA_WINDOW", 3)
        log = MutationDeltaLog()
        for generation in range(1, 8):
            log.record(generation, [generation])
        # Only generations 5..7 survive the window of 3.
        assert log.between(4, 7) is not None
        assert log.between(3, 7) is None  # gen 4 was dropped
        assert log.between(0, 2) is None
        assert log.between(7, 7) is None  # non-advancing
        assert log.between(7, 5) is None

    def test_window_overflow_degrades_to_invalidation(self):
        db = _make_db([_axis_vector(0, float(i)) for i in range(1, 6)])
        scheduler = QueryScheduler(db, max_batch=4)
        try:
            window = cache_module.DELTA_WINDOW
            query = np.zeros(DIM)
            scheduler.submit_query(query, 3).result(timeout=10)
            # Push the entry's generation past the retained window with
            # far inserts that would each individually revalidate.
            for step in range(window + 2):
                scheduler.submit_add(
                    _axis_vector(1, 100.0 + step)[None, :]
                ).result(timeout=10)
            served = scheduler.submit_query(query, 3).result(timeout=10)
            assert not served.cache_hit  # unprovable, safely evicted
            assert scheduler.cache.invalidations == 1
            assert _pairs(served.results) == _pairs(db.query(query, 3))
        finally:
            scheduler.close()


@pytest.fixture
def two_feature_scheduler():
    """Features ``a`` and ``b`` over the same 1..5 distance ladder, so a
    query answers identically under either until an insert splits them."""
    ladder = np.stack([_axis_vector(0, float(i)) for i in range(1, 6)])
    db = ImageDatabase(
        FeatureSchema([PresetSignature(DIM, "a"), PresetSignature(DIM, "b")]),
        index_factory=lambda metric: VPTree(metric, leaf_size=4),
    )
    db.add_vectors({"a": ladder, "b": ladder})
    db.build_indexes()
    scheduler = QueryScheduler(db, max_batch=4)
    yield db, scheduler
    scheduler.close()


class TestTwoFeatures:
    def test_each_mutation_bumps_the_generation_once(
        self, two_feature_scheduler
    ):
        db, scheduler = two_feature_scheduler
        start = db.generation
        row = _axis_vector(1, 9.0)[None, :]
        added = scheduler.submit_add({"a": row, "b": row}).result(timeout=10)
        assert db.generation == start + 1 == added.generation
        removed = scheduler.submit_remove(added.ids).result(timeout=10)
        assert db.generation == start + 2 == removed.generation
        db.add_vectors({"a": row, "b": row})
        assert db.generation == start + 3

    def test_remove_leaves_one_delta(self, two_feature_scheduler):
        db, scheduler = two_feature_scheduler
        before = db.generation
        scheduler.submit_remove([3]).result(timeout=10)
        assert scheduler._deltas.between(before, db.generation) == [((3,), None)]

    def test_revalidation_reads_the_queried_features_rows(
        self, two_feature_scheduler
    ):
        db, scheduler = two_feature_scheduler
        query = np.zeros(DIM)
        scheduler.submit_query(query, 3, feature="b").result(timeout=10)
        # Inside the 3rd-nearest under b's rows, far away under a's: an
        # entry checked against a's rows would wrongly revalidate.
        added = scheduler.submit_add(
            {"a": _axis_vector(1, 50.0)[None, :], "b": _axis_vector(1, 0.5)[None, :]}
        ).result(timeout=10)
        served = scheduler.submit_query(query, 3, feature="b").result(timeout=10)
        assert not served.cache_hit
        assert scheduler.cache.counters().invalidations == 1
        assert _pairs(served.results)[0] == (added.ids[0], 0.5)
        assert _pairs(served.results) == _pairs(db.query(query, 3, feature="b"))

        # The mirror image: near under a only, so b's entry revalidates.
        scheduler.submit_add(
            {"a": _axis_vector(1, 0.5)[None, :], "b": _axis_vector(1, 50.0)[None, :]}
        ).result(timeout=10)
        again = scheduler.submit_query(query, 3, feature="b").result(timeout=10)
        assert again.cache_hit
        assert scheduler.cache.counters().revalidations == 1
        assert _pairs(again.results) == _pairs(served.results)


def _never(stamp, results):
    """A revalidator that never saves a stale entry."""
    return False


class TestResultCachePrimitives:
    def test_counters_snapshot_is_single_lock(self):
        cache = ResultCache(8)
        key = cache.key("knn", "sig", 3, np.zeros(DIM))
        assert cache.get(key, 0, _never) is None
        cache.put(key, [], 0)
        assert cache.get(key, 0, _never) == []
        counters = cache.counters()
        assert isinstance(counters, CacheCounters)
        assert counters == CacheCounters(1, 1, 0, 0)
        assert counters.hit_rate == 0.5

    def test_revalidator_verdict_re_stamps_entry(self):
        cache = ResultCache(8)
        key = cache.key("knn", "sig", 3, np.zeros(DIM))
        cache.put(key, [], 1)
        seen = []

        def confirm(stored, results):
            seen.append((stored, results))
            return True

        assert cache.get(key, 2, revalidator=confirm) == []
        assert seen == [(1, [])]
        assert cache.counters() == CacheCounters(1, 0, 0, 1)
        # Re-stamped: the next lookup at generation 2 is a plain hit.
        assert cache.get(key, 2, _never) == []
        assert cache.counters() == CacheCounters(2, 0, 0, 1)

    def test_revalidator_rejection_evicts(self):
        cache = ResultCache(8)
        key = cache.key("knn", "sig", 3, np.zeros(DIM))
        cache.put(key, [], 1)
        assert cache.get(key, 2, revalidator=_never) is None
        assert cache.counters() == CacheCounters(0, 1, 1, 0)
        assert len(cache) == 0

    def test_revalidator_not_consulted_on_fresh_stamp(self):
        cache = ResultCache(8)
        key = cache.key("knn", "sig", 3, np.zeros(DIM))
        cache.put(key, [], 7)

        def explode(*_):
            raise AssertionError("fresh entries must not be revalidated")

        assert cache.get(key, 7, revalidator=explode) == []

    def test_raced_replacement_during_revalidation_is_plain_miss(self):
        cache = ResultCache(8)
        key = cache.key("knn", "sig", 3, np.zeros(DIM))
        cache.put(key, [], 1)

        def replace_then_confirm(stored, results):
            cache.put(key, [], 5)  # another thread replaced the entry
            return True

        assert cache.get(key, 2, revalidator=replace_then_confirm) is None
        counters = cache.counters()
        assert counters.revalidations == 0 and counters.invalidations == 0
        # The replacement entry survives untouched.
        assert cache.get(key, 5, _never) == []


class TestZeroStaleServes:
    def test_randomized_stream_every_serve_matches_fresh_build(self, rng):
        n = 20
        vectors = rng.random((n, DIM))
        table = {i: vectors[i] for i in range(n)}
        db = _make_db(vectors, factory=lambda metric: LinearScanIndex(metric))
        scheduler = QueryScheduler(db, max_batch=4)
        try:
            pool = rng.random((3, DIM))
            for _ in range(40):
                roll = rng.random()
                if roll < 0.45:
                    block = rng.random((int(rng.integers(1, 3)), DIM))
                    added = scheduler.submit_add(block).result(timeout=10)
                    for image_id, row in zip(added.ids, block):
                        table[image_id] = row
                elif roll < 0.65 and len(table) > 8:
                    doomed = [
                        int(i)
                        for i in rng.choice(
                            sorted(table), size=2, replace=False
                        )
                    ]
                    scheduler.submit_remove(doomed).result(timeout=10)
                    for image_id in doomed:
                        del table[image_id]
                pick = int(rng.integers(3))
                served = scheduler.submit_query(pool[pick], 5).result(
                    timeout=10
                )
                ids = sorted(table)
                oracle = LinearScanIndex(EuclideanDistance()).build(
                    ids, np.stack([table[i] for i in ids])
                )
                assert _pairs(served.results) == [
                    (nb.id, nb.distance)
                    for nb in oracle.knn_search(pool[pick], 5)
                ]
            counters = scheduler.cache.counters()
            assert counters.hits + counters.misses > 0
        finally:
            scheduler.close()
