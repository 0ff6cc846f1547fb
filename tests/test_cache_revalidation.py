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
* a range past the delta log's row bound, across an unrecorded
  generation or not advancing — must refuse to prove (``None`` →
  invalidate), never guess; a range of many small mutations inside the
  bound must still prove;
* an entry stamped newer than the lookup — a plain miss, kept;
* a randomized end-to-end stream where **every** served result is
  compared against a fresh build over the live item set — zero stale
  serves, by construction — and a hypothesis property where every
  served answer equals a fresh query and the columnar proof's verdict
  equals the per-mutation reference loop kept below.

Distances are engineered exact-in-float64 (integer coordinates on unit
axes), so "exactly at the kth distance" means bitwise equality, not
approximately.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.database import ImageDatabase
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index import LinearScanIndex, VPTree
from repro.metrics.minkowski import EuclideanDistance
from repro.serve import QueryScheduler
from repro.serve import cache as cache_module
from repro.serve.cache import (
    CacheCounters,
    MutationDeltaLog,
    ResultCache,
    entry_still_valid,
)

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
        monkeypatch.setattr(cache_module, "DELTA_ROWS", 3)
        log = MutationDeltaLog()
        for generation in range(1, 8):
            log.record(generation, [generation])
        # Only generations 5..7 fit the bound of 3 rows.
        assert log.between(4, 7) is not None
        assert log.between(3, 7) is None  # gen 4 was dropped
        assert log.between(0, 2) is None

    def test_non_advancing_ranges_refuse(self):
        log = MutationDeltaLog()
        for generation in range(1, 8):
            log.record(generation, [generation])
        assert log.between(7, 7) is None
        assert log.between(7, 5) is None
        assert log.between(6, 8) is None  # not recorded yet

    def test_log_never_holds_more_than_the_bound(self, monkeypatch, rng):
        bound = 10
        monkeypatch.setattr(cache_module, "DELTA_ROWS", bound)
        log = MutationDeltaLog()
        sizes = {}
        for generation in range(1, 200):
            size = int(rng.integers(0, 5))
            ids = list(range(generation * 10, generation * 10 + size))
            if rng.random() < 0.5:
                log.record(generation, ids)
            else:
                log.record(generation, ids, {"sig": rng.random((size, DIM))})
            sizes[generation] = size
            # The newest whole mutations whose rows fit the bound, and
            # nothing older.
            oldest, total = generation, sizes[generation]
            while oldest > 1 and total + sizes[oldest - 1] <= bound:
                oldest -= 1
                total += sizes[oldest]
            delta = log.between(oldest - 1, generation)
            rows = len(delta.removed) + len(delta.inserted_ids)
            assert rows == total <= bound
            assert log.between(oldest - 2, generation) is None
            assert len(log._inserts) + len(log._removes) == total

    def test_a_mutation_larger_than_the_bound_is_not_retained(self, monkeypatch):
        monkeypatch.setattr(cache_module, "DELTA_ROWS", 4)
        log = MutationDeltaLog()
        log.record(1, [1])
        log.record(2, list(range(10, 15)), {"sig": np.zeros((5, DIM))})
        assert log.between(1, 2) is None
        assert log.between(0, 2) is None
        log.record(3, [2])
        assert log.between(2, 3).removed.tolist() == [2]
        assert log.between(1, 3) is None
        assert len(log._inserts) + len(log._removes) == 1

    def test_unrecorded_generation_refuses(self):
        log = MutationDeltaLog()
        log.record(1, [1])
        log.record(2, [2])
        # Generation 3's apply failed after bumping: no record.
        log.record(4, [4])
        assert log.between(2, 4) is None
        assert log.between(1, 2) is None  # nothing older bridges the gap
        assert log.between(3, 4).removed.tolist() == [4]

    def test_an_empty_add_is_a_recorded_mutation(self, ladder_scheduler):
        # A zero-row add bumps the generation; the log records it (its
        # first insert, with no rows) and later proofs still span it.
        db, scheduler = ladder_scheduler
        query = np.zeros(DIM)
        first = scheduler.submit_query(query, 3).result(timeout=10)
        scheduler.submit_add(np.empty((0, DIM))).result(timeout=10)
        scheduler.submit_add(_axis_vector(1, 50.0)[None, :]).result(timeout=10)
        served = scheduler.submit_query(query, 3).result(timeout=10)
        assert served.cache_hit
        assert scheduler.cache.counters().revalidations == 1
        assert _pairs(served.results) == _pairs(first.results)

    def test_window_overflow_degrades_to_invalidation(self):
        db = _make_db([_axis_vector(0, float(i)) for i in range(1, 6)])
        scheduler = QueryScheduler(db, max_batch=4)
        try:
            query = np.zeros(DIM)
            scheduler.submit_query(query, 3).result(timeout=10)
            # Push the entry's stamp past the row bound with far
            # inserts that would each revalidate.
            half = cache_module.DELTA_ROWS // 2 + 1
            for step in range(2):
                block = np.tile(_axis_vector(1, 100.0 + step), (half, 1))
                scheduler.submit_add(block).result(timeout=10)
            served = scheduler.submit_query(query, 3).result(timeout=10)
            assert not served.cache_hit  # unprovable, safely evicted
            assert scheduler.cache.invalidations == 1
            assert _pairs(served.results) == _pairs(db.query(query, 3))
        finally:
            scheduler.close()

    def test_many_small_mutations_inside_the_bound_still_prove(self):
        # 100 mutations (more than a 64-mutation window ever reached),
        # 100 rows: the proof spans them all.
        db = _make_db([_axis_vector(0, float(i)) for i in range(1, 6)])
        scheduler = QueryScheduler(db, max_batch=4)
        try:
            query = np.zeros(DIM)
            first = scheduler.submit_query(query, 3).result(timeout=10)
            for step in range(100):
                scheduler.submit_add(
                    _axis_vector(1, 100.0 + step)[None, :]
                ).result(timeout=10)
            served = scheduler.submit_query(query, 3).result(timeout=10)
            assert served.cache_hit
            assert scheduler.cache.counters().revalidations == 1
            assert _pairs(served.results) == _pairs(first.results)
            assert _pairs(served.results) == _pairs(db.query(query, 3))
        finally:
            scheduler.close()


def _stress_mutation(generation):
    """Generation ``g``'s mutation in the stress test: every third one
    removes id ``g``, the others insert 1-4 rows whose every entry is
    their id."""
    if generation % 3 == 0:
        return [generation], None
    ids = generation * 10 + np.arange(1 + generation % 4)
    return ids.tolist(), np.repeat(ids[:, None], DIM, axis=1).astype(np.float64)


class TestDeltaLogConcurrency:
    def test_readers_see_whole_ranges_that_stay_put(self, monkeypatch):
        # One recorder against three readers (more threads than cores)
        # under a 10 us switch interval, with a small bound so trims and
        # moves to fresh columns happen constantly: every range a reader
        # gets is exactly the recorded mutations, and its arrays still
        # hold the same rows after the log has moved on.
        monkeypatch.setattr(cache_module, "DELTA_ROWS", 24)
        log = MutationDeltaLog()
        last = [0]
        stop = threading.Event()
        errors = []

        def expected(old, new):
            removed, inserted = [], []
            for generation in range(old + 1, new + 1):
                ids, rows = _stress_mutation(generation)
                (removed if rows is None else inserted).extend(ids)
            return removed, inserted

        def record():
            generation = 0
            while not stop.is_set():
                generation += 1
                ids, rows = _stress_mutation(generation)
                log.record(generation, ids, None if rows is None else {"sig": rows})
                last[0] = generation

        def read(seed):
            rng = np.random.default_rng(seed)
            held = []
            try:
                while not stop.is_set():
                    new = last[0]
                    old = new - int(rng.integers(1, 8))
                    delta = log.between(old, new)
                    if delta is not None:
                        held = held[-50:] + [(old, new, delta)]
                    for old, new, kept in held:
                        removed, inserted = expected(old, new)
                        assert kept.removed.tolist() == removed
                        assert kept.inserted_ids.tolist() == inserted
                        if inserted:
                            rows = np.repeat(np.array(inserted, float)[:, None], DIM, 1)
                            assert np.array_equal(kept.inserted["sig"], rows)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=record)] + [
                threading.Thread(target=read, args=(seed,)) for seed in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert last[0] > 100


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
        delta = scheduler._deltas.between(before, db.generation)
        assert delta.removed.tolist() == [3]
        assert delta.inserted_ids.tolist() == []
        assert all(len(rows) == 0 for rows in delta.inserted.values())

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


    def test_entry_stamped_newer_than_the_lookup_is_a_plain_miss(self):
        # The worker filled the entry at generation 5 after this lookup
        # read generation 4: not stale, so neither evicted nor counted
        # as an invalidation.
        cache = ResultCache(8)
        key = cache.key("knn", "sig", 3, np.zeros(DIM))
        cache.put(key, [], 5)
        assert cache.get(key, 4, revalidator=_never) is None
        assert cache.counters() == CacheCounters(0, 1, 0, 0)
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


class _WindowLog:
    """The reference delta log: the newest 64 mutations, one entry each."""

    def __init__(self, window=64):
        self._log = OrderedDict()
        self._window = window

    def record(self, generation, ids, matrices=None):
        self._log[generation] = (tuple(ids), matrices)
        while len(self._log) > self._window:
            self._log.popitem(last=False)

    def between(self, old, new):
        if old >= new:
            return None
        deltas = [self._log.get(g) for g in range(old + 1, new + 1)]
        return None if any(d is None for d in deltas) else deltas


def _reference_still_valid(deltas, feature, metric, kind, parameter, vector, results):
    """The per-mutation, per-row proof the columnar one must agree with."""
    if deltas is None:
        return False
    removed = {i for ids, rows in deltas if rows is None for i in ids}
    inserted = [
        (ids, rows[feature]) for ids, rows in deltas if rows is not None and ids
    ]
    if any(result.image_id in removed for result in results):
        return False
    if not inserted:
        return True
    if kind == "knn":
        if len(results) < parameter:
            return False
        kth = (results[-1].distance, results[-1].image_id)
        return not any(
            (float(d), i) < kth
            for ids, rows in inserted
            for i, d in zip(ids, metric.distance_batch(vector, rows))
        )
    return not any(
        np.any(metric.distance_batch(vector, rows) <= parameter)
        for _ids, rows in inserted
    )


#: Inserted rows come from the 0/1 corners of the unit cube, where
#: distances from the query pool tie constantly, and a few far points.
_CORNERS = [tuple((corner >> axis) & 1 for axis in range(DIM)) for corner in range(16)]
_FAR = [(3, 3, 3, 3), (3, 0, 3, 0), (0, 3, 0, 3), (2, 2, 2, 2)]
_grid_rows = st.lists(
    st.one_of(st.sampled_from(_CORNERS), st.sampled_from(_FAR)), min_size=1, max_size=3
).map(lambda rows: np.asarray(rows, dtype=np.float64))

#: Each step: an optional add / remove, then a k-NN or range query
#: from a small pool, so entries recur across mutations.
_steps = st.lists(
    st.tuples(
        st.one_of(
            st.none(),
            st.tuples(st.just("add"), _grid_rows),
            st.tuples(st.just("remove"), st.integers(0, 1 << 16)),
        ),
        st.one_of(
            st.tuples(st.just("knn"), st.integers(0, 1), st.sampled_from([3, 12])),
            st.tuples(st.just("range"), st.integers(0, 1), st.just(1.0)),
        ),
    ),
    min_size=1,
    max_size=30,
)


class TestColumnarProofProperty:
    @given(steps=_steps)
    @settings(max_examples=100, deadline=None)
    def test_every_serve_is_fresh_and_the_verdict_matches_the_reference(self, steps):
        # Cube corners make ties at the kth distance and hits exactly
        # on the radius common; k=12 exercises short lists.
        queries = np.array([[0, 0, 0, 0], [1, 1, 0, 0]], dtype=np.float64)
        start = np.vstack([np.zeros(DIM), np.eye(DIM), [[2, 0, 0, 0]]])
        db = _make_db(start)
        metric = db.metric_for("sig")
        reference = _WindowLog()
        model = {}  # (kind, query, parameter) -> (stamp, results)
        with QueryScheduler(db, max_batch=4) as scheduler:
            for mutation, (kind, pick, parameter) in steps:
                if mutation is not None and mutation[0] == "add":
                    added = scheduler.submit_add(mutation[1]).result(timeout=10)
                    reference.record(added.generation, added.ids, {"sig": mutation[1]})
                elif mutation is not None and len(db) > 2:
                    live = db.catalog.ids
                    doomed = [live[mutation[1] % len(live)]]
                    removed = scheduler.submit_remove(doomed).result(timeout=10)
                    reference.record(removed.generation, doomed)
                vector = queries[pick]
                entry = model.get((kind, pick, parameter))
                generation = db.generation
                if entry is not None and entry[0] < generation:
                    stamp, results = entry
                    args = ("sig", metric, kind, parameter, vector, results)
                    old = reference.between(stamp, generation)
                    new = scheduler._deltas.between(stamp, generation)
                    assert new is not None or old is None
                    if old is not None:
                        assert entry_still_valid(new, *args) == (
                            _reference_still_valid(old, *args)
                        )
                if kind == "knn":
                    served = scheduler.submit_query(vector, parameter).result(10)
                    fresh = db.query(vector, parameter)
                else:
                    served = scheduler.submit_range(vector, parameter).result(10)
                    fresh = db.range_query(vector, parameter)
                assert _pairs(served.results) == _pairs(fresh)
                model[(kind, pick, parameter)] = (db.generation, served.results)
