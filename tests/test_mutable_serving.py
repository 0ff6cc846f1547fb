"""Mutable-database serving: parity, generations, lazy invalidation.

The acceptance bar (ISSUE 5 / ``docs/mutability.md``):

* **mutation parity** — for randomized interleavings of add / remove /
  k-NN / range traffic across ≥3 index kinds, every result served
  *after* the mutations settle is bit-identical (ids and distance
  floats) to a fresh :class:`~repro.db.database.ImageDatabase` built
  over the same final item set;
* **linearizability** — mutations submitted through the scheduler act
  as barriers: queries admitted before see the old item set, queries
  after see the new one, in submission order;
* **no stale cache entry is ever served** — cached results carry the
  generation they were computed under; a mismatched lookup evicts and
  recomputes, certified by ``ServiceStats.cache_invalidations``;
* the database-level incremental paths (``add_image`` / ``add_vectors``
  / ``remove``) keep built indexes live instead of rebuilding, and bump
  the database's generation monotonically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.errors import CatalogError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index import LinearScanIndex, MTree, VPTree
from repro.metrics.minkowski import EuclideanDistance
from repro.serve import MutationResult, QueryScheduler, QueryServer, ServiceClient

DIM = 8

INDEX_KINDS = {
    "linear": lambda metric: LinearScanIndex(metric),
    "vptree": lambda metric: VPTree(metric, leaf_size=4),
    "mtree": lambda metric: MTree(metric, capacity=4),
}


def _make_db(factory, vectors):
    db = ImageDatabase(
        FeatureSchema([PresetSignature(DIM, "sig")]), index_factory=factory
    )
    db.add_vectors(vectors)
    db.build_indexes()
    return db


def _pairs(results):
    return [(r.image_id, r.distance) for r in results]


# ---------------------------------------------------------------------------
# Database-level incremental mutation
# ---------------------------------------------------------------------------
class TestDatabaseIncrementalMutation:
    @pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
    def test_randomized_interleaving_matches_fresh_database(self, kind, rng):
        vectors = rng.random((50, DIM))
        db = _make_db(INDEX_KINDS[kind], vectors)
        table = dict(zip(db.catalog.ids, vectors))

        for _ in range(4):
            if rng.random() < 0.6 and len(table) > 8:
                doomed = [
                    int(i)
                    for i in rng.choice(sorted(table), size=3, replace=False)
                ]
                db.remove(doomed)
                for image_id in doomed:
                    del table[image_id]
            block = rng.random((int(rng.integers(1, 5)), DIM))
            for image_id, vector in zip(db.add_vectors(block), block):
                table[image_id] = vector
            # Interleave queries so lazy rebuilds can't mask a bug.
            db.query(rng.random(DIM), 5)

        # Fresh database over the final item set, same ids.
        fresh = ImageDatabase(
            FeatureSchema([PresetSignature(DIM, "sig")]),
            index_factory=INDEX_KINDS[kind],
        )
        fresh_index = INDEX_KINDS[kind](EuclideanDistance()).build(
            sorted(table), np.stack([table[i] for i in sorted(table)])
        )
        del fresh  # ids differ on re-add; the index is the oracle

        for _ in range(5):
            query = rng.random(DIM)
            assert _pairs(db.query(query, 7)) == [
                (nb.id, nb.distance) for nb in fresh_index.knn_search(query, 7)
            ]
            assert _pairs(db.range_query(query, 0.8)) == [
                (nb.id, nb.distance)
                for nb in fresh_index.range_search(query, 0.8)
            ]

    def test_mutations_keep_built_indexes_live(self, rng):
        db = _make_db(INDEX_KINDS["vptree"], rng.random((40, DIM)))
        index_before = db.index_for("sig")
        added = db.add_vectors(rng.random((2, DIM)))
        db.remove(added[:1])
        # Same index object: no stale-marking, no from-scratch rebuild.
        assert db.index_for("sig") is index_before

    def test_generations_bump_monotonically(self, rng):
        db = _make_db(INDEX_KINDS["linear"], rng.random((10, DIM)))
        g0 = db.generation
        ids = db.add_vectors(rng.random((2, DIM)))
        assert db.generation == g0 + 1
        db.remove([ids[0]])
        assert db.generation == g0 + 2
        db.delete_image(ids[1])
        assert db.generation == g0 + 3

    def test_remove_validates_before_mutating(self, rng):
        db = _make_db(INDEX_KINDS["linear"], rng.random((10, DIM)))
        ids = db.catalog.ids
        with pytest.raises(CatalogError, match="unknown image id"):
            db.remove([ids[0], 424242])
        # The valid id survived the failed call.
        assert ids[0] in db.catalog.ids
        assert len(db) == 10

    def test_remove_returns_records_in_call_order(self, rng):
        db = _make_db(INDEX_KINDS["linear"], rng.random((10, DIM)))
        ids = db.catalog.ids
        records = db.remove([ids[3], ids[1]])
        assert [r.image_id for r in records] == [ids[3], ids[1]]
        assert len(db) == 8


# ---------------------------------------------------------------------------
# Scheduler-level mutation serving
# ---------------------------------------------------------------------------
class TestSchedulerMutations:
    @pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
    def test_interleaved_served_traffic_matches_fresh_database(self, kind, rng):
        vectors = rng.random((40, DIM))
        db = _make_db(INDEX_KINDS[kind], vectors)
        table = dict(zip(db.catalog.ids, vectors))
        pool = rng.random((6, DIM))

        scheduler = QueryScheduler(db, max_batch=8, max_wait_ms=1.0)
        served: list[tuple[str, int, object]] = []
        for step in range(30):
            roll = rng.random()
            if roll < 0.2:
                block = rng.random((int(rng.integers(1, 4)), DIM))
                result = scheduler.submit_add(block).result(timeout=30)
                for image_id, vector in zip(result.ids, block):
                    table[image_id] = vector
            elif roll < 0.35 and len(table) > 10:
                doomed = [
                    int(i)
                    for i in rng.choice(sorted(table), size=2, replace=False)
                ]
                result = scheduler.submit_remove(doomed).result(timeout=30)
                assert result.ids == doomed
                for image_id in doomed:
                    del table[image_id]
            elif roll < 0.7:
                pick = int(rng.integers(len(pool)))
                outcome = scheduler.submit_query(pool[pick], 5).result(timeout=30)
                served.append(("knn", pick, outcome))
            else:
                pick = int(rng.integers(len(pool)))
                outcome = scheduler.submit_range(pool[pick], 0.8).result(
                    timeout=30
                )
                served.append(("range", pick, outcome))

        # After the last mutation settled, re-serve the whole pool and
        # compare against a fresh build over the final item set.
        final = {
            kind_: [
                scheduler.submit_query(pool[pick], 5).result(timeout=30)
                if kind_ == "knn"
                else scheduler.submit_range(pool[pick], 0.8).result(timeout=30)
                for pick in range(len(pool))
            ]
            for kind_ in ("knn", "range")
        }
        stats = scheduler.stats()
        scheduler.close()

        oracle = INDEX_KINDS[kind](EuclideanDistance()).build(
            sorted(table), np.stack([table[i] for i in sorted(table)])
        )
        for pick in range(len(pool)):
            assert _pairs(final["knn"][pick].results) == [
                (nb.id, nb.distance) for nb in oracle.knn_search(pool[pick], 5)
            ]
            assert _pairs(final["range"][pick].results) == [
                (nb.id, nb.distance)
                for nb in oracle.range_search(pool[pick], 0.8)
            ]
        assert stats.mutations > 0

    def test_no_stale_cache_entry_is_ever_served(self, rng):
        db = _make_db(INDEX_KINDS["vptree"], rng.random((30, DIM)))
        scheduler = QueryScheduler(db, max_batch=4)
        query = rng.random(DIM)

        first = scheduler.submit_query(query, 5).result(timeout=10)
        hit = scheduler.submit_query(query, 5).result(timeout=10)
        assert not first.cache_hit and hit.cache_hit

        # An insert far outside the cached top-5 leaves the entry
        # provably valid: the stale stamp is *revalidated* (check-on-hit
        # against the mutation delta log), not evicted.
        far = scheduler.submit_add(query[None, :] + 100.0).result(timeout=10)
        after_far = scheduler.submit_query(query, 5).result(timeout=10)
        assert after_far.cache_hit
        assert scheduler.stats().cache_revalidations == 1
        assert scheduler.stats().cache_invalidations == 0
        assert _pairs(after_far.results) == _pairs(first.results)

        # An insert at distance zero beats the kth result: the entry is
        # genuinely stale and must be evicted, never served.
        near = scheduler.submit_add(query[None, :]).result(timeout=10)
        after_near = scheduler.submit_query(query, 5).result(timeout=10)
        assert not after_near.cache_hit
        assert scheduler.stats().cache_invalidations == 1
        assert after_near.results[0].image_id == near.ids[0]

        # Removing a cached result id invalidates too.
        scheduler.submit_remove(near.ids).result(timeout=10)
        after_remove = scheduler.submit_query(query, 5).result(timeout=10)
        assert not after_remove.cache_hit
        assert scheduler.stats().cache_invalidations == 2

        # Removing the far item (not in any cached top-5) revalidates.
        scheduler.submit_remove(far.ids).result(timeout=10)
        after_far_remove = scheduler.submit_query(query, 5).result(timeout=10)
        assert after_far_remove.cache_hit
        assert scheduler.stats().cache_revalidations >= 2

        # Generation stable again: the cache works as before, and every
        # served result equals a fresh query against the live database.
        again = scheduler.submit_query(query, 5).result(timeout=10)
        assert again.cache_hit
        assert _pairs(again.results) == _pairs(db.query(query, 5))
        scheduler.close()

    def test_mutation_barrier_orders_queries_around_it(self, rng):
        # Stage [query, add, query] before the worker starts: the whole
        # interleaving forms one batch, yet the first query must answer
        # against the pre-add item set and the second against the
        # post-add one.
        vectors = rng.random((20, DIM))
        db = _make_db(INDEX_KINDS["linear"], vectors)
        new_vector = np.zeros((1, DIM))  # guaranteed nearest to itself
        query = np.zeros(DIM)

        scheduler = QueryScheduler(
            db, max_batch=8, cache_size=0, autostart=False
        )
        before = scheduler.submit_query(query, 1)
        pending_add = scheduler.submit_add(new_vector)
        after = scheduler.submit_query(query, 1)
        scheduler.start()
        added = pending_add.result(timeout=10)
        assert before.result(timeout=10).results[0].image_id != added.ids[0]
        assert after.result(timeout=10).results[0].image_id == added.ids[0]
        assert after.result(timeout=10).results[0].distance == 0.0
        scheduler.close()

    def test_failed_mutation_poisons_nothing(self, rng):
        db = _make_db(INDEX_KINDS["linear"], rng.random((15, DIM)))
        scheduler = QueryScheduler(db, max_batch=4, autostart=False)
        query = rng.random(DIM)
        good_before = scheduler.submit_query(query, 3)
        doomed = scheduler.submit_remove([987654])
        good_after = scheduler.submit_query(query, 3)
        scheduler.start()
        with pytest.raises(CatalogError, match="unknown image id"):
            doomed.result(timeout=10)
        assert _pairs(good_before.result(timeout=10).results) == _pairs(
            good_after.result(timeout=10).results
        )
        stats = scheduler.stats()
        assert stats.mutations == 0  # failed mutations are not "applied"
        assert len(db) == 15
        scheduler.close()

    def test_mutation_result_shape(self, rng):
        db = _make_db(INDEX_KINDS["linear"], rng.random((10, DIM)))
        with QueryScheduler(db) as scheduler:
            result = scheduler.submit_add(
                rng.random((2, DIM)), labels=["a", "b"], names=["n0", "n1"]
            ).result(timeout=10)
        assert isinstance(result, MutationResult)
        assert result.kind == "add" and len(result.ids) == 2
        assert result.generation == db.generation
        assert result.latency_s >= 0.0
        assert db.catalog.get(result.ids[0]).label == "a"
        assert db.catalog.get(result.ids[1]).name == "n1"

    def test_submit_mutation_after_close_rejected(self, rng):
        db = _make_db(INDEX_KINDS["linear"], rng.random((10, DIM)))
        scheduler = QueryScheduler(db)
        scheduler.close()
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="closed"):
            scheduler.submit_add(rng.random((1, DIM)))
        with pytest.raises(ServeError, match="closed"):
            scheduler.submit_remove([0])


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------
class TestHTTPMutations:
    @pytest.fixture
    def served(self, rng):
        vectors = np.random.default_rng(11).random((25, DIM))
        db = _make_db(INDEX_KINDS["vptree"], vectors)
        server = QueryServer(db, port=0, max_wait_ms=0.5).start()
        host, port = server.address
        client = ServiceClient(host, port)
        client.wait_until_ready(timeout=10.0)
        try:
            yield db, client
        finally:
            server.stop()

    def test_add_query_remove_round_trip(self, served, rng):
        db, client = served
        before = client.healthz()
        target = rng.random(DIM)
        response = client.add(
            target[None, :], labels=["fresh"], names=["the-new-one"]
        )
        assert len(response["ids"]) == 1
        assert response["generation"] == before["generation"] + 1

        hit = client.query(target, 1)
        assert hit["results"][0]["image_id"] == response["ids"][0]
        assert hit["results"][0]["distance"] == 0.0
        assert hit["results"][0]["label"] == "fresh"
        assert hit["results"][0]["name"] == "the-new-one"

        removed = client.remove(response["ids"])
        assert removed["removed"] == response["ids"]
        assert client.healthz()["images"] == before["images"]
        assert client.query(target, 1)["results"][0]["distance"] > 0.0

    def test_stats_expose_mutation_counters(self, served, rng):
        _, client = served
        query = rng.random(DIM)
        client.query(query, 3)
        client.query(query, 3)  # cache hit
        client.add(query[None, :])  # distance 0: beats the cached top-3
        client.query(query, 3)  # invalidation + recompute
        client.add(query[None, :] + 100.0)  # far outside the top-3
        client.query(query, 3)  # stale stamp, provably valid: revalidation
        stats = client.stats()
        assert stats["mutations"] == 2
        assert stats["cache_invalidations"] == 1
        assert stats["cache_revalidations"] == 1
        assert stats["cache_hits"] == 2

    def test_add_signatures_mapping_form(self, served, rng):
        _, client = served
        response = client.add(signatures={"sig": rng.random((2, DIM))})
        assert len(response["ids"]) == 2

    def test_malformed_mutations_rejected(self, served):
        _, client = served
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="exactly one"):
            client._request("/add", {})
        with pytest.raises(ServeError, match="rectangular"):
            client._request("/add", {"vectors": [[0.1], [0.2, 0.3]]})
        with pytest.raises(ServeError, match="ids"):
            client._request("/remove", {"ids": []})
        with pytest.raises(ServeError, match="ids"):
            client._request("/remove", {"ids": ["zero"]})
        with pytest.raises(ServeError, match="unknown image id"):
            client.remove([31337])
        with pytest.raises(ServeError, match="matrix"):
            client.add(np.zeros((1, DIM + 3)))
