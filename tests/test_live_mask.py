"""One live set: the catalog's live mask is every mutation's commit point.

The database's catalog owns one flag per image id and hands the mask to
every index; indexes hold rows, not liveness (``docs/mutability.md``).
Pinned here:

* **failed add** — an add whose second index refuses its rows leaves
  every index, the catalog and the answers as before, with its ids
  burnt;
* **failed reclaim** — a remove whose index compaction fails after the
  commit still leaves the id gone everywhere, and the answers those of a
  fresh build over the live set, and a LAESA index keeps its pivot
  table and core the same length whichever compaction fails;
* **dead rows cost nothing extra** — a static tree asks its structure
  for ``k``, not ``k`` plus the dead rows: the pruning radius is the
  k-th *live* distance;
* **dead-row parity** — with 0, 5 and 20 % of the rows dead and not yet
  reclaimed, every index kind on both backends answers bit for bit as a
  fresh build over the live rows.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.db import ImageDatabase
from repro.db.backend import MemoryBackend, resolve_backend_factory
from repro.eval.datasets import gaussian_clusters
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.index import (
    GNAT,
    AntipoleTree,
    FilterRefineIndex,
    KDTree,
    LAESAIndex,
    LinearScanIndex,
    MTree,
    VPTree,
)
from repro.index import base as index_base
from repro.metrics.minkowski import EuclideanDistance
from repro.reduce import KLTransform

DIM = 6


def _pairs(neighbors):
    return [(nb.id, nb.distance) for nb in neighbors]


def _hits(results):
    return [(r.image_id, r.distance) for r in results]


def _two_feature_db(rng, index_factory=None):
    schema = FeatureSchema([PresetSignature(DIM, "a"), PresetSignature(DIM, "b")])
    db = ImageDatabase(schema, index_factory=index_factory)
    db.add_vectors({"a": rng.random((50, DIM)), "b": rng.random((50, DIM))})
    db.build_indexes()
    return db


def _answers(db, probes, k=5):
    return {
        feature: [
            _hits(hits)
            for hits in db.query_batch(probes, k, feature=feature, precomputed=True)
        ]
        for feature in ("a", "b")
    }


def test_failed_add_leaves_every_index_and_the_catalog_as_before(rng, monkeypatch):
    db = _two_feature_db(rng)
    probes = rng.random((64, DIM))
    before = _answers(db, probes)
    generation = db.generation
    refusing = db._indexes["b"]
    real_append = index_base._PendingRows.append

    def append(self, ids, vectors):
        if self is refusing._pending:
            raise OSError(errno.ENOSPC, "no space left on device")
        real_append(self, ids, vectors)

    monkeypatch.setattr(index_base._PendingRows, "append", append)
    with pytest.raises(OSError):
        db.add_vectors({"a": rng.random((2, DIM)), "b": rng.random((2, DIM))})
    monkeypatch.undo()

    assert len(db) == db._indexes["a"].size == db._indexes["b"].size == 50
    assert db.generation == generation
    assert 50 not in db.catalog and 51 not in db.catalog
    assert _answers(db, probes) == before
    # The failed add burnt its ids: the next one gets the next two.
    assert db.add_vectors({"a": rng.random((2, DIM)), "b": rng.random((2, DIM))}) == [52, 53]
    for feature in ("a", "b"):
        ids, _ = db.feature_matrix(feature)
        assert ids == [*range(50), 52, 53]


def test_failed_reclaim_after_a_remove_leaves_the_id_gone_everywhere(
    rng, monkeypatch
):
    db = _two_feature_db(rng, index_factory=LinearScanIndex)
    failing = db._indexes["a"]._core
    real_take = MemoryBackend.take

    def take(self, keep):
        if self is failing:
            raise OSError(errno.EIO, "input/output error")
        return real_take(self, keep)

    monkeypatch.setattr(MemoryBackend, "take", take)
    with pytest.raises(OSError):
        db.remove([7])
    monkeypatch.undo()

    live = [image_id for image_id in range(50) if image_id != 7]
    assert 7 not in db.catalog and db.catalog.ids == live
    for index in db._indexes.values():
        assert index.live_ids() == live and index.size == 49
    assert not db.catalog.live.of([7])[0]
    fresh = ImageDatabase(db.schema, index_factory=LinearScanIndex)
    fresh.add_vectors(
        {feature: db.feature_matrix(feature)[1] for feature in ("a", "b")}, ids=live
    )
    probes = rng.random((16, DIM))
    assert _answers(db, probes, k=8) == _answers(fresh, probes, k=8)
    for feature in ("a", "b"):
        got = db.range_query_batch(probes, 0.5, feature=feature, precomputed=True)
        want = fresh.range_query_batch(probes, 0.5, feature=feature, precomputed=True)
        assert [_hits(r) for r in got] == [_hits(r) for r in want]


@pytest.mark.parametrize("store", ["_table_store", "_core"])
def test_failed_laesa_reclaim_keeps_table_and_core_in_step(rng, store, monkeypatch):
    """A LAESA delete whose pivot table or core compaction fails raises,
    sets the id live again, and leaves table and core the same length:
    the index answers as a fresh build, and a later delete succeeds."""
    rows = rng.random((200, 8))
    laesa = LAESAIndex(EuclideanDistance()).build(np.arange(200), rows)
    failing = getattr(laesa, store)
    real_take = MemoryBackend.take

    def take(self, keep):
        if self is failing:
            monkeypatch.undo()
            raise OSError(errno.ENOSPC, "no space left on device")
        return real_take(self, keep)

    monkeypatch.setattr(MemoryBackend, "take", take)
    with pytest.raises(OSError):
        laesa.delete([5])
    assert laesa.live_mask.of([5])[0]
    assert len(laesa._table_store.view()) == len(laesa._core.view()) == 200

    probes = rng.random((8, 8))

    def answers(index):
        return [
            (_pairs(index.knn_search(p, 10)), _pairs(index.range_search(p, 0.6)))
            for p in probes
        ]

    fresh = LAESAIndex(EuclideanDistance()).build(np.arange(200), rows)
    assert answers(laesa) == answers(fresh)
    laesa.delete([5])
    live = np.delete(np.arange(200), 5)
    fresh = LAESAIndex(EuclideanDistance()).build(live, rows[live])
    assert answers(laesa) == answers(fresh)


def test_dead_rows_do_not_inflate_a_vptree_knn():
    """The ladder's VP-tree k-NN (the e2e data, n=20k, d=16, leaf 16,
    k=10, 100 queries) costs 1 341.36 distances; with 1 000 and 2 000
    dead rows still in the tree it stays within 10 % of that, and the
    answers are a fresh build's over the live rows."""
    n, k = 20_000, 10
    rows, _ = gaussian_clusters(n + 100, 16, n_clusters=16, cluster_std=0.05, seed=1)
    base, queries = rows[:n], rows[n:]
    tree = VPTree(EuclideanDistance(), leaf_size=16).build(np.arange(n), base)
    tree.rebuild_min = 10**9  # keep the dead rows in the structure
    tree.knn_search_batch(queries, k)
    assert tree.last_stats.distance_computations / len(queries) == 1341.36

    doomed = np.random.default_rng(5).permutation(n)[:2000]
    for dead in (1000, 2000):
        tree.delete(doomed[dead - 1000 : dead])
        assert len(tree._ids) == n  # held, not reclaimed
        got = tree.knn_search_batch(queries, k)
        assert tree.last_stats.distance_computations / len(queries) <= 1.1 * 1341.36
        live = np.setdiff1d(np.arange(n), doomed[:dead])
        fresh = VPTree(EuclideanDistance(), leaf_size=16).build(live, base[live])
        assert [_pairs(r) for r in got] == [
            _pairs(r) for r in fresh.knn_search_batch(queries, k)
        ]


KINDS = {
    "linear": lambda metric: LinearScanIndex(metric),
    "vptree": lambda metric: VPTree(metric, leaf_size=4),
    "antipole": lambda metric: AntipoleTree(metric),
    "kdtree": lambda metric: KDTree(metric),
    "laesa": lambda metric: LAESAIndex(metric, n_pivots=4),
    "mtree": lambda metric: MTree(metric, capacity=4),
    "gnat": lambda metric: GNAT(metric),
    "filter_refine": lambda metric: FilterRefineIndex(metric, KLTransform(3)),
}


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("share", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_dead_rows_answer_as_a_fresh_build_over_the_live_rows(
    kind, share, backend, tmp_path
):
    """Flags cleared and nothing reclaimed — the state between a
    remove's commit and its reclaim, or after a failed reclaim — so the
    liveness checks alone keep the dead rows out of every answer."""
    rng = np.random.default_rng(11)
    n = 120
    rows = rng.random((n, DIM))
    index = KINDS[kind](EuclideanDistance())
    if backend == "mmap":
        index.backend_factory = resolve_backend_factory(
            f"mmap:{tmp_path}", cache_pages=2
        )
    index.build(np.arange(n), rows)
    index.insert_batch(np.arange(n, n + 10), rng.random((10, DIM)))
    table = dict(zip(range(n + 10), index.vectors_of(np.arange(n + 10))))
    dead = rng.permutation(n + 10)[: round(share * (n + 10))]
    index.live_mask.set(dead, False)
    live = sorted(set(table) - set(dead.tolist()))
    fresh = KINDS[kind](EuclideanDistance()).build(
        live, np.stack([table[i] for i in live])
    )
    assert index.size == len(live) and sorted(index.live_ids()) == live

    queries = rng.random((6, DIM))
    for query in queries:
        assert _pairs(index.knn_search(query, 7)) == _pairs(fresh.knn_search(query, 7))
        assert _pairs(index.range_search(query, 0.7)) == _pairs(
            fresh.range_search(query, 0.7)
        )
    got = index.knn_search_batch(queries, 9)
    assert [_pairs(r) for r in got] == [
        _pairs(r) for r in fresh.knn_search_batch(queries, 9)
    ]
    got = index.range_search_batch(queries, 0.5)
    assert [_pairs(r) for r in got] == [
        _pairs(r) for r in fresh.range_search_batch(queries, 0.5)
    ]
    index.close()
