"""Mutation coalescing: adjacent same-kind mutations share one barrier.

ISSUE 9 tentpole (b): the scheduler worker collapses adjacent
``submit_add`` runs (and adjacent ``submit_remove`` runs) in a formed
batch into *one* database call — one generation bump per feature, one
journal record, one fsync — while keeping per-future semantics
bit-identical to serial application:

* every future still resolves with exactly its own allocated /
  removed ids;
* a malformed add fails only its own future and breaks the run;
* overlapping removes fail exactly the member that would have failed
  serially (the engine's own unknown-id error);
* explicit and default naming never mix into one engine call;
* mixed kinds (add next to remove) never coalesce.

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


class TestAdjacentAddsCoalesce:
    def test_one_generation_bump_and_distinct_ids(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            before = scheduler.generations()["sig"]
            blocks = [rng.random((n, DIM)) for n in (1, 3, 2)]
            futures = [scheduler.submit_add(block) for block in blocks]
            scheduler.start()
            results = [f.result(timeout=10) for f in futures]

            # One engine barrier for the whole run: the generation moved
            # by exactly 1 even though three futures were acknowledged.
            assert scheduler.generations()["sig"] == before + 1

            all_ids = [i for r in results for i in r.ids]
            assert [len(r.ids) for r in results] == [1, 3, 2]
            assert len(set(all_ids)) == len(all_ids)

            stats = scheduler.stats()
            assert stats.mutations == 3
            assert stats.coalesced_mutations == 2

            # Attribution is positional: each future's ids map to its
            # own rows, verified by querying each inserted vector.
            for result, block in zip(results, blocks):
                for image_id, row in zip(result.ids, block):
                    served = scheduler.submit_query(row, 1).result(timeout=10)
                    assert served.results[0].image_id == image_id
                    assert served.results[0].distance == 0.0
        finally:
            scheduler.close()

    def test_coalesced_run_writes_one_journal_group(self, rng, tmp_path):
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
            # One merged engine call → one journal record, and the
            # formed batch acknowledged everything behind one group
            # fsync (log-before-ack unchanged).
            assert journal.n_records == 1
            assert journal.n_syncs == 1
            assert scheduler.stats().coalesced_mutations == 2
        finally:
            scheduler.close()

    def test_serial_adds_write_one_record_each(self, rng, tmp_path):
        # Control for the journal-group test: the same three adds
        # applied in separate formed batches cost three records.
        db = _make_db(rng)
        journal = Journal.create(tmp_path / JOURNAL_FILE, database_fingerprint(db))
        scheduler = QueryScheduler(db, journal=journal, max_wait_ms=0.5)
        try:
            for _ in range(3):
                scheduler.submit_add(rng.random((2, DIM))).result(timeout=10)
            assert journal.n_records == 3
            assert scheduler.stats().coalesced_mutations == 0
        finally:
            scheduler.close()

    def test_names_parity_breaks_the_run(self, rng):
        # Default names derive from allocated ids, so an explicitly
        # named add cannot share an engine call with a default-named
        # one — the run must break between them.
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            before = scheduler.generations()["sig"]
            plain = scheduler.submit_add(rng.random((1, DIM)))
            named = scheduler.submit_add(
                rng.random((1, DIM)), names=["img-explicit"]
            )
            scheduler.start()
            plain_result = plain.result(timeout=10)
            named_result = named.result(timeout=10)
            assert scheduler.generations()["sig"] == before + 2
            assert scheduler.stats().coalesced_mutations == 0
            assert len(plain_result.ids) == len(named_result.ids) == 1
        finally:
            scheduler.close()

    def test_malformed_add_fails_alone_mid_run(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            good = [scheduler.submit_add(rng.random((1, DIM))) for _ in range(2)]
            bad = scheduler.submit_add(rng.random((1, DIM + 1)))  # wrong dim
            tail = scheduler.submit_add(rng.random((1, DIM)))
            scheduler.start()
            ids = [f.result(timeout=10).ids for f in good]
            with pytest.raises(Exception):
                bad.result(timeout=10)
            tail_ids = tail.result(timeout=10).ids
            # The two leading adds coalesced; the malformed one broke
            # the run and failed alone; the tail applied on its own.
            stats = scheduler.stats()
            assert stats.coalesced_mutations == 1
            assert stats.mutations == 3  # failed mutations are not counted
            all_ids = [i for chunk in ids for i in chunk] + list(tail_ids)
            assert len(set(all_ids)) == 3
        finally:
            scheduler.close()


class TestAdjacentRemovesCoalesce:
    def test_disjoint_removes_share_one_barrier(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            before = scheduler.generations()["sig"]
            first = scheduler.submit_remove([0, 1])
            second = scheduler.submit_remove([2])
            scheduler.start()
            assert sorted(first.result(timeout=10).ids) == [0, 1]
            assert second.result(timeout=10).ids == [2]
            assert scheduler.generations()["sig"] == before + 1
            assert scheduler.stats().coalesced_mutations == 1
            served = scheduler.submit_query(np.zeros(DIM), SEED_N).result(
                timeout=10
            )
            assert {r.image_id for r in served.results} == set(
                range(3, SEED_N)
            )
        finally:
            scheduler.close()

    def test_overlapping_remove_fails_exactly_the_overlapper(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            first = scheduler.submit_remove([0, 1])
            overlap = scheduler.submit_remove([1, 2])  # 1 already claimed
            scheduler.start()
            assert sorted(first.result(timeout=10).ids) == [0, 1]
            # The overlapper broke the run and applied alone, after the
            # first remove — so it got the engine's own unknown-id
            # error, exactly as it would have serially.  Id 2 survives:
            # validate-all-first removes touch nothing on failure.
            with pytest.raises(Exception):
                overlap.result(timeout=10)
            served = scheduler.submit_query(np.zeros(DIM), SEED_N).result(
                timeout=10
            )
            assert 2 in {r.image_id for r in served.results}
            assert scheduler.stats().coalesced_mutations == 0
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


class TestRunBoundaries:
    def test_mixed_kinds_never_coalesce(self, rng):
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        try:
            before = scheduler.generations()["sig"]
            add_one = scheduler.submit_add(rng.random((1, DIM)))
            remove = scheduler.submit_remove([0])
            add_two = scheduler.submit_add(rng.random((1, DIM)))
            scheduler.start()
            add_one.result(timeout=10)
            remove.result(timeout=10)
            add_two.result(timeout=10)
            assert scheduler.generations()["sig"] == before + 3
            assert scheduler.stats().coalesced_mutations == 0
        finally:
            scheduler.close()

    def test_query_between_mutations_is_a_barrier(self, rng):
        # A query admitted between two adds must see exactly the first
        # add's rows — the adds are on opposite sides of the barrier and
        # must not coalesce across it.
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
            assert scheduler.stats().coalesced_mutations == 0
        finally:
            scheduler.close()

    def test_final_state_parity_with_fresh_build(self, rng):
        # End-to-end oracle: a coalesced mutation stream must leave the
        # database bit-identical to a fresh build over the surviving rows.
        db = _make_db(rng)
        scheduler = _staged_scheduler(db)
        seed_ids, seed_rows = db.feature_matrix("sig")
        table = {i: seed_rows[pos] for pos, i in enumerate(seed_ids)}
        try:
            blocks = [rng.random((2, DIM)) for _ in range(3)]
            add_futures = [scheduler.submit_add(block) for block in blocks]
            remove_future = scheduler.submit_remove([0, 3])
            scheduler.start()
            for future, block in zip(add_futures, blocks):
                for image_id, row in zip(future.result(timeout=10).ids, block):
                    table[image_id] = row
            remove_future.result(timeout=10)
            del table[0], table[3]

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
