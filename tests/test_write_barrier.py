"""The write barrier: one mutation, one barrier; one group fsync per batch.

The scheduler worker applies every ``submit_add`` / ``submit_remove``
on its own — one database call, one journal record, one generation
bump per feature — in arrival order between the query segments around
it, and acknowledges everything a formed batch applied behind one
group fsync.  Per-future semantics:

* every future resolves with exactly its own allocated / removed ids;
* a malformed add fails only its own future;
* a remove naming an id an earlier mutation removed fails exactly that
  remove, with the engine's own unknown-id error;
* a query between two mutations sees exactly the first one.

These tests stage deterministic batches with ``autostart=False``:
submit everything while the worker is parked, then ``start()`` so the
whole queue drains as one formed batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.db.journal import JOURNAL_FILE, Journal
from repro.db.recovery import database_fingerprint
from repro.errors import ServeError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index import LinearScanIndex
from repro.metrics.minkowski import EuclideanDistance
from repro.serve import QueryScheduler

DIM = 6
SEED_N = 10


def _make_db(rng):
    db = ImageDatabase(
        FeatureSchema([PresetSignature(DIM, "sig")]),
        index_factory=lambda metric: LinearScanIndex(metric),
    )
    db.add_vectors(rng.random((SEED_N, DIM)))
    db.build_indexes()
    return db


def _staged_scheduler(db, **kwargs):
    kwargs.setdefault("max_batch", 64)
    kwargs.setdefault("max_wait_ms", 0.5)
    return QueryScheduler(db, autostart=False, **kwargs)


class TestSerialAdds:
    def test_one_generation_bump_per_add_and_distinct_ids(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            before = scheduler.generation
            blocks = [rng.random((n, DIM)) for n in (1, 3, 2)]
            futures = [scheduler.submit_add(block) for block in blocks]
            scheduler.start()
            results = [f.result(timeout=10) for f in futures]

            # One barrier per mutation: three adds drained as one
            # formed batch still move the generation by three.
            assert scheduler.generation == before + 3

            all_ids = [i for r in results for i in r.ids]
            assert [len(r.ids) for r in results] == [1, 3, 2]
            assert all_ids == list(range(all_ids[0], all_ids[0] + 6))
            assert scheduler.stats().mutations == 3

            # Attribution: each future's ids map to its own rows,
            # verified by querying each inserted vector.
            for result, block in zip(results, blocks):
                for image_id, row in zip(result.ids, block):
                    served = scheduler.submit_query(row, 1).result(timeout=10)
                    assert served.results[0].image_id == image_id
                    assert served.results[0].distance == 0.0
        finally:
            scheduler.close()

    def test_staged_adds_write_one_record_each_behind_one_sync(
        self, rng, tmp_path
    ):
        db = _make_db(rng)
        journal = Journal.create(tmp_path / JOURNAL_FILE, database_fingerprint(db))
        scheduler = _staged_scheduler(db, journal=journal)
        try:
            futures = [
                scheduler.submit_add(rng.random((2, DIM))) for _ in range(3)
            ]
            scheduler.start()
            for future in futures:
                future.result(timeout=10)
            # Three mutations → three records; the formed batch
            # acknowledged all of them behind one group fsync.
            assert journal.n_records == 3
            assert scheduler.journal_info()["syncs"] == 1
        finally:
            scheduler.close()

    def test_serial_adds_write_one_record_each(self, rng, tmp_path):
        # The same three adds applied in separate formed batches: three
        # records and a group fsync each.
        db = _make_db(rng)
        journal = Journal.create(tmp_path / JOURNAL_FILE, database_fingerprint(db))
        scheduler = QueryScheduler(db, journal=journal, max_wait_ms=0.5)
        try:
            for _ in range(3):
                scheduler.submit_add(rng.random((2, DIM))).result(timeout=10)
            assert journal.n_records == 3
            assert scheduler.journal_info()["syncs"] == 3
        finally:
            scheduler.close()

    def test_malformed_add_fails_alone_mid_run(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            before = scheduler.generation
            good = [scheduler.submit_add(rng.random((1, DIM))) for _ in range(2)]
            bad = scheduler.submit_add(rng.random((1, DIM + 1)))  # wrong dim
            tail = scheduler.submit_add(rng.random((1, DIM)))
            scheduler.start()
            ids = [f.result(timeout=10).ids for f in good]
            with pytest.raises(Exception):
                bad.result(timeout=10)
            tail_ids = tail.result(timeout=10).ids
            # The malformed add failed alone and touched nothing: three
            # bumps, three consecutive ids.
            assert scheduler.generation == before + 3
            assert scheduler.stats().mutations == 3  # failures not counted
            all_ids = [i for chunk in ids for i in chunk] + list(tail_ids)
            assert all_ids == list(range(all_ids[0], all_ids[0] + 3))
        finally:
            scheduler.close()


class TestSerialRemoves:
    def test_overlapping_remove_fails_exactly_the_overlapper(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            first = scheduler.submit_remove([0, 1])
            overlap = scheduler.submit_remove([1, 2])  # 1 already removed
            scheduler.start()
            assert sorted(first.result(timeout=10).ids) == [0, 1]
            # Applied after the first remove, the overlapper gets the
            # engine's own unknown-id error.  Id 2 survives:
            # validate-all-first removes touch nothing on failure.
            with pytest.raises(Exception):
                overlap.result(timeout=10)
            served = scheduler.submit_query(np.zeros(DIM), SEED_N).result(
                timeout=10
            )
            assert 2 in {r.image_id for r in served.results}
        finally:
            scheduler.close()

    def test_duplicate_ids_rejected_at_admission(self, rng):
        db = _make_db(rng)
        scheduler = QueryScheduler(db, max_wait_ms=0.5)
        try:
            with pytest.raises(ServeError, match="duplicate image ids"):
                scheduler.submit_remove([3, 4, 3])
            # Admission rejection touched nothing: the ids are live and
            # a well-formed remove still works.
            result = scheduler.submit_remove([3, 4]).result(timeout=10)
            assert sorted(result.ids) == [3, 4]
        finally:
            scheduler.close()


class TestBarriers:
    def test_query_between_mutations_is_a_barrier(self, rng):
        # A query admitted between two adds must see exactly the first
        # add's rows.
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            probe = rng.random(DIM) + 5.0  # far from the seed corpus
            first = scheduler.submit_add(probe[None, :])
            between = scheduler.submit_query(probe, 1)
            second = scheduler.submit_add(probe[None, :])
            scheduler.start()
            first_ids = first.result(timeout=10).ids
            served = between.result(timeout=10)
            second_ids = second.result(timeout=10).ids
            assert served.results[0].image_id == first_ids[0]
            assert served.results[0].distance == 0.0
            assert second_ids != first_ids
        finally:
            scheduler.close()

    def test_final_state_parity_with_fresh_build(self, rng, tmp_path):
        # End-to-end oracle: a staged mutation stream must leave the
        # database bit-identical to a fresh build over the surviving
        # rows, with one journal record and one generation bump per
        # mutation.
        db = _make_db(rng)
        journal = Journal.create(tmp_path / JOURNAL_FILE, database_fingerprint(db))
        scheduler = _staged_scheduler(db, journal=journal)
        seed_ids, seed_rows = db.feature_matrix("sig")
        table = {i: seed_rows[pos] for pos, i in enumerate(seed_ids)}
        try:
            before = scheduler.generation
            blocks = [rng.random((2, DIM)) for _ in range(3)]
            add_futures = [scheduler.submit_add(block) for block in blocks]
            remove_future = scheduler.submit_remove([0, 3])
            scheduler.start()
            for future, block in zip(add_futures, blocks):
                for image_id, row in zip(future.result(timeout=10).ids, block):
                    table[image_id] = row
            remove_future.result(timeout=10)
            del table[0], table[3]
            assert scheduler.generation == before + 4
            assert journal.n_records == 4
            assert scheduler.journal_info()["syncs"] == 1

            ids = sorted(table)
            oracle = LinearScanIndex(EuclideanDistance()).build(
                ids, np.stack([table[i] for i in ids])
            )
            for probe in rng.random((5, DIM)):
                served = scheduler.submit_query(probe, 4).result(timeout=10)
                expected = oracle.knn_search(probe, 4)
                assert [(r.image_id, r.distance) for r in served.results] == [
                    (nb.id, nb.distance) for nb in expected
                ]
        finally:
            scheduler.close()
