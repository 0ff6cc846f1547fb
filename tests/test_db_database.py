"""Tests for the ImageDatabase facade."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.db.backend import resolve_backend_factory
from repro.db.database import ImageDatabase
from repro.db.idmap import IdMap
from repro.db.store import FeatureStore
from repro.db.feedback import FeedbackSession
from repro.errors import QueryError
from repro.features.base import PresetSignature
from repro.features.histogram import GrayHistogram, RGBJointHistogram
from repro.features.pipeline import FeatureSchema
from repro.image import synth
from repro.index.antipole import AntipoleTree
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.laesa import LAESAIndex
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree
from repro.index.vptree import VPTree
from repro.metrics.minkowski import ManhattanDistance


@pytest.fixture
def small_schema():
    return FeatureSchema([RGBJointHistogram(2, working_size=32), GrayHistogram(8, working_size=32)])


@pytest.fixture
def db(small_schema):
    return ImageDatabase(small_schema)


@pytest.fixture
def populated(db, rng):
    red_ids = [
        db.add_image(
            synth.compose_scene(
                32, 32, rng, background=synth.solid(32, 32, (0.7, 0.3, 0.3)),
                palette=[(0.9, 0.1, 0.1)],
            ),
            label="red",
        )
        for _ in range(5)
    ]
    blue_ids = [
        db.add_image(
            synth.compose_scene(
                32, 32, rng, background=synth.solid(32, 32, (0.3, 0.3, 0.7)),
                palette=[(0.1, 0.1, 0.9)],
            ),
            label="blue",
        )
        for _ in range(5)
    ]
    return db, red_ids, blue_ids


class TestInsertion:
    def test_add_image_assigns_ids_and_metadata(self, db, rng):
        image = synth.compose_scene(32, 32, rng)
        image_id = db.add_image(image, label="scenes", name="first", camera="x100")
        assert image_id == 0
        record = db.catalog.get(0)
        assert record.label == "scenes"
        assert record.name == "first"
        assert record.extra == {"camera": "x100"}
        assert record.width == 32
        assert len(db) == 1

    def test_add_images_bulk(self, db, rng):
        pairs = [(synth.compose_scene(32, 32, rng), "a") for _ in range(3)]
        ids = db.add_images(pairs)
        assert ids == [0, 1, 2]

    def test_feature_matrix_shapes(self, populated):
        db, _, _ = populated
        ids, matrix = db.feature_matrix("rgb_hist_2")
        assert len(ids) == 10
        assert matrix.shape == (10, 8)

    def test_delete_image(self, populated):
        db, red_ids, _ = populated
        db.delete_image(red_ids[0])
        assert len(db) == 9
        ids, _ = db.feature_matrix("rgb_hist_2")
        assert red_ids[0] not in ids

    def test_re_adding_a_removed_id_leaves_the_database_unchanged(self, rng, tmp_path):
        # Ids are never reused: a built VP-tree still holds the removed
        # row, its live flag clear, until its next rebuild.  The refusal
        # comes before anything changes, so nothing is half applied and
        # save works.
        db = ImageDatabase(FeatureSchema([PresetSignature(4, "sig")]))
        rows = rng.random((64, 4))
        db.add_vectors(rows)
        db.build_indexes()
        db.remove([5])
        generation = db.generation
        with pytest.raises(QueryError, match="never reused"):
            db.add_vectors(rng.random((1, 4)), ids=[5])
        assert (db.generation, db.next_image_id()) == (generation, 64)
        live = [image_id for image_id in range(64) if image_id != 5]
        assert len(db) == db.index_for("sig").size == 63
        assert db.catalog.ids == live
        db.save(tmp_path)
        loaded = ImageDatabase.load(tmp_path, db.schema)
        ids, matrix = loaded.feature_matrix("sig")
        assert ids == live
        assert matrix.tobytes() == rows[live].tobytes()

    def test_schema_must_be_nonempty(self):
        with pytest.raises(QueryError):
            ImageDatabase(FeatureSchema())


class TestSingleFeatureQueries:
    def test_query_returns_ranked_results(self, populated, rng):
        db, _, _ = populated
        results = db.query(synth.compose_scene(32, 32, rng), k=4)
        assert len(results) == 4
        distances = [r.distance for r in results]
        assert distances == sorted(distances)
        assert all(r.record is not None for r in results)

    def test_query_finds_color_neighbours(self, populated, rng):
        db, red_ids, blue_ids = populated
        red_query = synth.compose_scene(
            32, 32, rng, background=synth.solid(32, 32, (0.7, 0.3, 0.3)),
            palette=[(0.9, 0.1, 0.1)],
        )
        results = db.query(red_query, k=3, feature="rgb_hist_2")
        hits = sum(1 for r in results if r.image_id in red_ids)
        assert hits >= 2

    def test_query_accepts_raw_vector(self, populated):
        db, _, _ = populated
        ids, matrix = db.feature_matrix("rgb_hist_2")
        results = db.query(matrix[0], k=len(db), feature="rgb_hist_2")
        assert results[0].distance == pytest.approx(0.0)
        exact_ids = {r.image_id for r in results if r.distance == 0.0}
        assert ids[0] in exact_ids  # several scenes may share the histogram

    def test_range_query(self, populated):
        db, _, _ = populated
        ids, matrix = db.feature_matrix("rgb_hist_2")
        results = db.range_query(matrix[0], radius=0.0, feature="rgb_hist_2")
        assert any(r.image_id == ids[0] for r in results)

    def test_query_batch_matches_scalar_queries(self, populated, rng):
        db, _, _ = populated
        queries = [synth.compose_scene(32, 32, rng) for _ in range(3)]
        batches = db.query_batch(queries, k=4, feature="rgb_hist_2")
        assert len(batches) == 3
        for query, results in zip(queries, batches):
            scalar = db.query(query, k=4, feature="rgb_hist_2")
            assert [(r.image_id, r.distance) for r in results] == [
                (r.image_id, r.distance) for r in scalar
            ]
            assert all(r.record is not None for r in results)

    def test_query_batch_accepts_raw_vectors(self, populated):
        db, _, _ = populated
        ids, matrix = db.feature_matrix("rgb_hist_2")
        batches = db.query_batch([matrix[0], matrix[1]], k=1, feature="rgb_hist_2")
        assert [len(results) for results in batches] == [1, 1]
        assert batches[0][0].distance == pytest.approx(0.0)

    def test_query_batch_empty_input(self, populated):
        db, _, _ = populated
        assert db.query_batch([], k=3, feature="rgb_hist_2") == []

    def test_range_query_batch_matches_scalar(self, populated):
        db, _, _ = populated
        ids, matrix = db.feature_matrix("rgb_hist_2")
        batches = db.range_query_batch([matrix[0], matrix[1]], 0.2, feature="rgb_hist_2")
        for row, results in zip(matrix[:2], batches):
            scalar = db.range_query(row, 0.2, feature="rgb_hist_2")
            assert [(r.image_id, r.distance) for r in results] == [
                (r.image_id, r.distance) for r in scalar
            ]

    def test_query_batch_on_empty_database_rejected(self, db, rng):
        with pytest.raises(QueryError, match="empty"):
            db.query_batch([synth.compose_scene(32, 32, rng)], k=2)

    def test_unknown_feature_rejected(self, populated, rng):
        db, _, _ = populated
        with pytest.raises(QueryError, match="unknown feature"):
            db.query(synth.compose_scene(32, 32, rng), feature="nope")

    def test_empty_database_rejected(self, db, rng):
        with pytest.raises(QueryError, match="empty"):
            db.query(synth.compose_scene(32, 32, rng))

    def test_wrong_vector_dim_rejected(self, populated):
        db, _, _ = populated
        with pytest.raises(QueryError, match="dim"):
            db.query(np.zeros(5), feature="rgb_hist_2")

    def test_index_rebuilt_after_mutation(self, populated, rng):
        db, red_ids, _ = populated
        db.query(synth.compose_scene(32, 32, rng), k=2)  # builds index
        db.delete_image(red_ids[0])
        results = db.query(synth.compose_scene(32, 32, rng), k=len(db))
        assert red_ids[0] not in [r.image_id for r in results]

    def test_custom_metric_and_index_factory(self, small_schema, rng):
        db = ImageDatabase(
            small_schema,
            metrics={"rgb_hist_2": ManhattanDistance()},
            index_factory=lambda metric: LinearScanIndex(metric),
        )
        db.add_image(synth.compose_scene(32, 32, rng))
        db.add_image(synth.compose_scene(32, 32, rng))
        results = db.query(synth.compose_scene(32, 32, rng), k=1)
        assert len(results) == 1
        assert isinstance(db.index_for("rgb_hist_2"), LinearScanIndex)

    def test_unknown_metric_feature_rejected(self, small_schema):
        with pytest.raises(QueryError, match="unknown features"):
            ImageDatabase(small_schema, metrics={"zzz": ManhattanDistance()})


class TestMultiFeatureQueries:
    def test_query_multi_returns_per_feature_detail(self, populated, rng):
        db, _, _ = populated
        results = db.query_multi(synth.compose_scene(32, 32, rng), k=3)
        assert len(results) == 3
        for result in results:
            assert set(result.per_feature) == {"rgb_hist_2", "gray_hist_8"}

    def test_query_multi_with_weights(self, populated, rng):
        db, _, _ = populated
        query = synth.compose_scene(32, 32, rng)
        color_only = db.query_multi(query, k=5, weights={"rgb_hist_2": 1.0})
        multi = db.query_multi(query, k=5, weights={"rgb_hist_2": 1.0, "gray_hist_8": 1.0})
        assert len(color_only) == len(multi) == 5

    def test_query_multi_validation(self, populated, rng):
        db, _, _ = populated
        query = synth.compose_scene(32, 32, rng)
        with pytest.raises(QueryError, match="positive"):
            db.query_multi(query, weights={"rgb_hist_2": 0.0})
        with pytest.raises(QueryError, match="k must be"):
            db.query_multi(query, k=0)
        with pytest.raises(QueryError, match="requires an Image"):
            db.query_multi(np.zeros(8), k=1)

    def test_query_fused_methods(self, populated, rng):
        db, _, _ = populated
        query = synth.compose_scene(32, 32, rng)
        for method in ("borda", "rrf"):
            results = db.query_fused(query, k=3, method=method)
            assert len(results) == 3
        with pytest.raises(QueryError, match="method"):
            db.query_fused(query, method="median")


class TestPersistence:
    def test_save_load_round_trip(self, populated, small_schema, tmp_path, rng):
        db, _, _ = populated
        query = synth.compose_scene(32, 32, rng)
        before = [r.image_id for r in db.query(query, k=5)]

        db.save(tmp_path)
        loaded = ImageDatabase.load(tmp_path, small_schema)
        after = [r.image_id for r in loaded.query(query, k=5)]
        assert before == after
        assert len(loaded) == len(db)
        assert loaded.catalog.get(0).label == db.catalog.get(0).label

    def test_load_rejects_schema_mismatch(self, populated, tmp_path):
        db, _, _ = populated
        db.save(tmp_path)
        other = FeatureSchema([GrayHistogram(8, working_size=32)])
        with pytest.raises(QueryError, match="do not match"):
            ImageDatabase.load(tmp_path, other)

    def test_load_rejects_dim_mismatch(self, populated, tmp_path):
        db, _, _ = populated
        db.save(tmp_path)
        other = FeatureSchema(
            [RGBJointHistogram(3, working_size=32), GrayHistogram(8, working_size=32)]
        )
        # Same count, different names/dims -> name check fires first.
        with pytest.raises(QueryError):
            ImageDatabase.load(tmp_path, other)


    @pytest.mark.parametrize("built", [False, True], ids=["waiting", "built"])
    def test_save_writes_the_bytes_of_per_row_appends(self, tmp_path, rng, built):
        """``save`` hands each feature to the store in one ``extend``; the
        ``.feat`` files are byte for byte what one ``append`` per row —
        the path it replaces — writes, partial tail page included."""
        dims = {"a": 5, "b": 3}
        schema = FeatureSchema([PresetSignature(d, name=f) for f, d in dims.items()])
        db = ImageDatabase(schema)
        n = 3 * 64 + 17  # three full pages and a tail
        matrices = {f: rng.random((n, d)) for f, d in dims.items()}
        db.add_vectors(matrices)
        db.remove([4, 70, n - 1])
        if built:
            db.build_indexes()
        db.save(tmp_path / "db")

        live = db.catalog.ids
        for feature, dim in dims.items():
            reference = tmp_path / f"{feature}.ref"
            with FeatureStore.create(reference, dim) as store:
                for image_id in live:
                    store.append(matrices[feature][image_id])
            saved = tmp_path / "db" / "features" / f"{feature}.feat"
            assert saved.read_bytes() == reference.read_bytes()


# ----------------------------------------------------------------------
# Row ownership: the index's storage backend is the only holder of a
# built feature's rows; before the first build they wait in one buffer.
# ----------------------------------------------------------------------
_INDEX_KINDS = {"linear": LinearScanIndex, "vptree": VPTree, "mtree": MTree}


@pytest.fixture(params=["memory", "mmap"])
def backend(request, tmp_path):
    if request.param == "memory":
        return "memory"
    return resolve_backend_factory(f"mmap:{tmp_path / 'cores'}", cache_pages=4)


def _pairs(results):
    return [(r.image_id, r.distance) for r in results]


def _assert_reads_match(db, truth, directory):
    """Every route that reads rows back returns the bits that went in."""
    live = db.catalog.ids
    db.save(directory)
    loaded = ImageDatabase.load(directory, db.schema)
    for feature in db.schema.names:
        expected = np.stack([truth[feature][image_id] for image_id in live])
        for source in (db, loaded):
            ids, matrix = source.feature_matrix(feature)
            assert ids == live
            assert matrix.tobytes() == expected.tobytes()
        for row, image_id in enumerate(live):
            assert db.vector_of(feature, image_id).tobytes() == expected[row].tobytes()


def _assert_queries_match(db, truth, query):
    """The multi-feature rerank and a feedback round equal those of a
    linear-scan database freshly built over the same live items."""
    live = db.catalog.ids
    reference = ImageDatabase(
        db.schema, index_factory=LinearScanIndex, backend="memory"
    )
    reference.add_vectors(
        {
            feature: np.stack([truth[feature][image_id] for image_id in live])
            for feature in db.schema.names
        },
        ids=live,
    )
    # pool_factor=1 keeps the per-feature pools small, so most
    # candidates need their other feature's distance read back by id.
    got, want = (d.query_multi(query, k=3, pool_factor=1) for d in (db, reference))
    assert _pairs(got) == _pairs(want)
    assert [r.per_feature for r in got] == [r.per_feature for r in want]

    sessions = [FeedbackSession(d, query) for d in (db, reference)]
    for session in sessions:
        first = session.search(k=4)
        session.mark_relevant([first[0].image_id, first[1].image_id])
        session.mark_non_relevant([first[3].image_id])
    moved, wanted = (_pairs(session.search(k=4)) for session in sessions)
    assert moved == wanted
    assert sessions[0].query_vector.tobytes() == sessions[1].query_vector.tobytes()


@pytest.mark.parametrize("kind", sorted(_INDEX_KINDS))
class TestRowOwnership:
    def test_reads_are_bit_identical_in_every_state(
        self, small_schema, backend, kind, rng, tmp_path
    ):
        db = ImageDatabase(
            small_schema, index_factory=_INDEX_KINDS[kind], backend=backend
        )
        truth = {feature: {} for feature in small_schema.names}

        def add(count):
            for _ in range(count):
                image = synth.compose_scene(32, 32, rng)
                image_id = db.add_image(image)
                for feature, vector in small_schema.extract_all(image).items():
                    truth[feature][image_id] = vector

        def remove(image_ids):
            db.remove(image_ids)
            for table in truth.values():
                for image_id in image_ids:
                    del table[image_id]

        query = synth.compose_scene(32, 32, rng)
        add(14)
        remove([3])

        # Before the first build: the rows wait in each index's buffer.
        _assert_reads_match(db, truth, tmp_path / "waiting")
        assert not any(index.is_built for index in db._indexes.values())
        _assert_queries_match(db, truth, query)  # builds lazily

        # After an explicit build: the structures hold every row.
        db.build_indexes()
        assert not any(index.n_pending for index in db._indexes.values())
        _assert_reads_match(db, truth, tmp_path / "built")
        _assert_queries_match(db, truth, query)

        # After mutations the live indexes absorbed in place.
        add(3)
        remove([0, 15])
        add(2)
        remove([7])
        index = db.index_for(db.default_feature)
        if kind == "vptree":
            assert index.n_pending
        if kind != "linear":  # the trees hold dead rows until a rebuild
            assert len(index._ids) + index.n_pending > index.size
        assert all(index.is_built for index in db._indexes.values())
        _assert_reads_match(db, truth, tmp_path / "mutated")
        _assert_queries_match(db, truth, query)

    def test_add_remove_add_before_build_equals_fresh_build(
        self, backend, kind, rng
    ):
        schema = FeatureSchema([PresetSignature(6)])
        rows = rng.random((30, 6))
        db = ImageDatabase(schema, index_factory=_INDEX_KINDS[kind], backend=backend)
        db.add_vectors(rows[:20])
        db.remove([2, 5, 11, 19])
        db.add_vectors(rows[20:29])
        generation = db.generation
        with pytest.raises(QueryError, match="never reused"):
            db.add_vectors(rows[29:], ids=[5])  # refused before anything changes
        assert (db.generation, db.next_image_id()) == (generation, 29)
        db.add_vectors(rows[29:])
        survivors = db.catalog.ids
        assert survivors[-1] == 29 and len(survivors) == 26

        fresh = ImageDatabase(
            schema, index_factory=_INDEX_KINDS[kind], backend="memory"
        )
        by_id = dict(enumerate(rows))
        fresh.add_vectors(
            np.stack([by_id[image_id] for image_id in survivors]), ids=survivors
        )

        probes = rng.random((12, 6))
        for database in (db, fresh):
            database.build_indexes()
        got, want = (d.query_batch(probes, 7, precomputed=True) for d in (db, fresh))
        assert [_pairs(r) for r in got] == [_pairs(r) for r in want]
        counts = [
            d.index_for(d.default_feature).last_stats.distance_computations
            for d in (db, fresh)
        ]
        assert counts[0] == counts[1]
        if kind == "linear":
            assert counts[0] == len(probes) * len(survivors)


def test_by_id_reads_before_the_first_build_do_not_rescan_the_ids(monkeypatch):
    """``vector_of`` on a feature still waiting for its build used to rebuild a dict over *all* waiting ids per call.  The
    index's pending buffer keeps one id -> row map: reading by id never
    sorts or scans the id column again, however many reads there are,
    and a wholesale in-order read borrows the buffer instead of
    gathering."""
    n, dim = 3000, 4
    rows = np.random.default_rng(8).random((n, dim))
    db = ImageDatabase(FeatureSchema([PresetSignature(dim)]))
    # Descending ids: the worst case, the map needs its sorter.
    db.add_vectors(rows, ids=list(range(n - 1, -1, -1)))
    feature = db.default_feature

    index = db._indexes[feature]
    held = waiting = index._pending  # the buffer is its own id map
    sorts = []  # True for each call that had to sort the waiting ids
    real_sorted = IdMap._sorted
    monkeypatch.setattr(
        IdMap,
        "_sorted",
        lambda self: sorts.append(self is held and self._sorter is None)
        or real_sorted(self),
    )
    for image_id in range(0, n, 7):
        assert db.vector_of(feature, image_id).tobytes() == rows[n - 1 - image_id].tobytes()
    assert index._pending is held  # one map, kept
    assert sum(sorts) <= 1  # ... whose sorter was built at most once

    wholesale = index.vectors_of(db.catalog.id_array)
    assert not wholesale.flags.writeable
    assert np.shares_memory(wholesale, waiting.block)
    # The public read is still a fresh array the caller may keep.
    ids, matrix = db.feature_matrix(feature)
    assert matrix.flags.writeable and not np.shares_memory(matrix, wholesale)
    assert matrix.tobytes() == rows.tobytes() and ids == list(range(n - 1, -1, -1))


def _retained(build, domain=None):
    """Bytes still allocated after ``build()`` returned (and its result
    is alive) that were not before — numpy data buffers only when
    ``domain`` is numpy's tracemalloc domain, everything otherwise."""
    filters = [] if domain is None else [tracemalloc.DomainFilter(True, domain)]

    def allocated():
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(filters)
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        before = allocated()
        built = build()
        return built, allocated() - before
    finally:
        tracemalloc.stop()


#: kind -> (factory, rows built over).  Node payloads are not what this
#: is about, so the trees get roomy leaves (the kd-tree's per-node boxes
#: at its default leaf size are as big as the rows themselves) and LAESA
#: a narrow pivot table; the two slow builders — tracemalloc makes them
#: 8x slower still — get fewer rows.
_ALL_KINDS = {
    "linear": (LinearScanIndex, 4000),
    "laesa": (lambda metric: LAESAIndex(metric, n_pivots=4), 4000),
    "vptree": (VPTree, 4000),
    "gnat": (lambda metric: GNAT(metric, leaf_size=32), 4000),
    "kdtree": (lambda metric: KDTree(metric, leaf_size=32), 4000),
    "antipole": (AntipoleTree, 1200),
    "mtree": (lambda metric: MTree(metric, capacity=16, promotion="maxdist"), 2000),
}


@pytest.mark.parametrize("kind", sorted(_ALL_KINDS))
def test_build_retains_one_copy_of_the_rows(backend, kind):
    """Array bytes retained from empty database to built index.

    Counted in numpy's tracemalloc domain (data buffers only): one copy
    of the rows in RAM on the memory backend whatever the index kind —
    the static trees store the core itself in tree order instead of a
    second block beside it — and on mmap the buffer pool plus per-row
    side columns, never the rows: the M-tree's pages hold core row
    numbers, not vectors.  The slack covers those side columns (ids, the
    catalog's columns, LAESA's pivot table, cached centroid distances,
    node boxes and range tables).
    """
    factory, n = _ALL_KINDS[kind]
    dim = 32
    rows = np.random.default_rng(5).random((n, dim))

    def build():
        db = ImageDatabase(
            FeatureSchema([PresetSignature(dim)]), index_factory=factory, backend=backend
        )
        db.add_vectors(rows)
        db.build_indexes()
        return db

    db, retained = _retained(build, np.lib.tracemalloc_domain)
    info = db.backend_info()
    if info["bounded"]:
        pool_bytes = info["cache_pages"] * info["page_records"] * dim * 8
        assert retained <= pool_bytes + 0.4 * rows.nbytes
    else:
        assert retained <= 1.6 * rows.nbytes

    # By-id reads go through the backend: on mmap the pool sees them.
    pool = db.backend_info()["pool"]
    probe = n // 2 + 3  # not on the store's in-memory tail page
    assert db.vector_of(db.default_feature, probe).tobytes() == rows[probe].tobytes()
    moved = db.backend_info()["pool"]
    assert (moved["hits"] + moved["misses"] > pool["hits"] + pool["misses"]) == (
        info["bounded"]
    )


@pytest.mark.parametrize("kind", ["laesa", "linear", "mtree"])
def test_inserts_retain_one_copy_of_the_rows(backend, kind):
    """Array bytes retained from empty database through a build and an
    ``add_vectors`` that makes the core grow, for the indexes that grow
    in place.

    The new rows join the backend's core (in memory: a reallocation to
    twice the capacity) and nothing else keeps them, or the block the
    core grew out of: no structure views a stale block or holds its own
    copy of an inserted row.  Same slack as the build-only test above.
    """
    factory, n = _ALL_KINDS[kind]
    dim = 32
    rows = np.random.default_rng(7).random((2 * n, dim))

    def build_and_grow():
        db = ImageDatabase(
            FeatureSchema([PresetSignature(dim)]), index_factory=factory, backend=backend
        )
        db.add_vectors(rows[:n])
        db.build_indexes()
        db.add_vectors(rows[n:])
        return db

    db, retained = _retained(build_and_grow, np.lib.tracemalloc_domain)
    index = db.index_for(db.default_feature)
    assert index.size == 2 * n and index.n_pending == 0  # grown in place
    info = db.backend_info()
    if info["bounded"]:
        pool_bytes = info["cache_pages"] * info["page_records"] * dim * 8
        assert retained <= pool_bytes + 0.4 * rows.nbytes
    else:
        assert retained <= index._core.capacity * dim * 8 + 0.6 * rows.nbytes
    probe = n + n // 2 + 3
    assert db.vector_of(db.default_feature, probe).tobytes() == rows[probe].tobytes()


@pytest.mark.parametrize("kind, budget", [("linear", 0.5), ("vptree", 1.5)])
def test_first_build_takes_the_pending_block_instead_of_copying_it(kind, budget):
    """Peak bytes allocated while ``build_indexes()`` runs, after one
    ``add_vectors`` of n rows, as a multiple of the rows' bytes.

    The first build takes the index's pending block as its working
    block, so no row-sized array is allocated for it.  Copying the
    buffer into a fresh working block measured 1.13x (linear scan:
    the copy) and 2.26x (VP-tree: the copy plus the root partition's
    gather) at n=20k, d=16; taking it, 0.06x and 1.14x.
    """
    n, dim = 20_000, 16
    rows = np.random.default_rng(4).random((n, dim))
    db = ImageDatabase(
        FeatureSchema([PresetSignature(dim)]),
        index_factory={"linear": LinearScanIndex, "vptree": VPTree}[kind],
        backend="memory",
    )
    tracemalloc.start()
    try:
        db.add_vectors(rows)
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        db.build_indexes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / rows.nbytes <= budget
    assert db.vector_of(db.default_feature, 17).tobytes() == rows[17].tobytes()


def test_catalog_and_waiting_rows_cost_bytes_not_objects():
    """Everything ``add_vectors`` retains besides the vectors, per row.

    All tracemalloc domains, so Python objects count: the columnar
    catalog (id, width, height, mode and label columns) plus the waiting
    rows' id column come to ~30 B/row.  One ``ImageRecord`` per row
    (with its ``__dict__``, ``extra`` dict and name ``str``) was ~330 B,
    a dict of ``int`` keys another ~80 B.
    """
    n, dim = 50_000, 4
    rows = np.random.default_rng(6).random((n, dim))

    def ingest():
        db = ImageDatabase(FeatureSchema([PresetSignature(dim)]))
        db.add_vectors(rows, labels=["even", "odd"] * (n // 2))
        assert 17 in db.catalog and db.catalog.get(n - 1).label == "odd"
        return db

    db, retained = _retained(ingest)
    assert (retained - rows.nbytes) / n <= 48
    # ... and nothing per-row hides in a Python container.
    catalog = db.catalog
    assert not any(
        isinstance(value, (list, dict, set)) and len(value) >= n
        for value in vars(catalog).values()
    )
    assert catalog.get(123).name == "vector_123" and not catalog._names
