"""The index mutation protocol: insert_batch / delete / rebuild.

The pinned contract (``docs/mutability.md``):

* **live-set exactness** — after any interleaving of ``insert_batch``
  and ``delete`` calls, every query entry point (scalar, batched, the
  VP-tree's approximate mode, the Antipole's ids-only range) returns
  results bit-identical (ids *and* distance floats, same tie-breaks)
  to a fresh index built over the same final item set;
* **measured cost** — the pending-buffer overlay is counted: an
  externally wrapped :class:`~repro.metrics.base.CountingMetric` and
  the index's own ``SearchStats`` agree exactly, mutations or not, and
  batched per-query counters equal their scalar counterparts;
* **threshold rebuild** — the overlay folds back into the structure
  once ``pending + dead`` rows pass the configured threshold;
* **validation** — duplicate/unknown ids, wrong dimensionality, and
  non-finite vectors are rejected loudly, before any state changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.backend import MemoryBackendFactory
from repro.errors import IndexingError
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
from repro.index.base import Neighbor
from repro.index.stats import SearchStats
from repro.metrics.base import CountingMetric
from repro.metrics.minkowski import EuclideanDistance, ManhattanDistance
from repro.reduce import KLTransform

DIM = 6

INDEX_FACTORIES = {
    "linear": lambda metric: LinearScanIndex(metric),
    "vptree": lambda metric: VPTree(metric, leaf_size=4),
    "antipole": lambda metric: AntipoleTree(metric),
    "kdtree": lambda metric: KDTree(metric),
    "laesa": lambda metric: LAESAIndex(metric, n_pivots=4),
    "mtree": lambda metric: MTree(metric, capacity=4),
    "gnat": lambda metric: GNAT(metric),
    "filter_refine": lambda metric: FilterRefineIndex(metric, KLTransform(3)),
}

#: Structures that absorb inserts in place (no pending buffer).
DYNAMIC_INSERT = {"linear", "laesa", "mtree"}
#: Structures that drop dead rows at once (compaction, not a rebuild).
DYNAMIC_DELETE = {"linear", "laesa"}


def _pairs(neighbors):
    return [(nb.id, nb.distance) for nb in neighbors]


def _mutate(index, rng, table, next_id, rounds=3):
    """Random interleaving of inserts and deletes; updates ``table``."""
    for _ in range(rounds):
        if table and rng.random() < 0.5:
            doomed = [
                int(i)
                for i in rng.choice(
                    sorted(table), size=min(len(table) - 1, 4), replace=False
                )
            ]
            index.delete(doomed)
            for item_id in doomed:
                del table[item_id]
        count = int(rng.integers(1, 6))
        fresh_ids = list(range(next_id, next_id + count))
        next_id += count
        block = rng.random((count, DIM))
        index.insert_batch(fresh_ids, block)
        for item_id, vector in zip(fresh_ids, block):
            table[item_id] = vector
    return next_id


def _fresh(name, table, metric=None):
    ids = sorted(table)
    matrix = np.stack([table[item_id] for item_id in ids])
    return INDEX_FACTORIES[name](metric or EuclideanDistance()).build(ids, matrix)


@pytest.mark.parametrize("name", sorted(INDEX_FACTORIES))
class TestMutationParity:
    """Every index kind, every entry point: mutated == freshly built."""

    def test_interleaved_mutations_match_fresh_build(self, name, rng):
        n = 60
        vectors = rng.random((n, DIM))
        table = {i: vectors[i] for i in range(n)}
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(n)), vectors
        )
        _mutate(index, rng, table, next_id=1000)
        fresh = _fresh(name, table)
        assert index.size == fresh.size == len(table)

        # The rows read back by id are the live ones, bit for bit.
        live = index.live_ids()
        assert sorted(live) == sorted(table)
        assert (
            index.vectors_of(live).tobytes()
            == np.stack([table[item_id] for item_id in live]).tobytes()
        )

        queries = rng.random((4, DIM))
        for query in queries:
            assert _pairs(index.knn_search(query, 7)) == _pairs(
                fresh.knn_search(query, 7)
            )
            assert _pairs(index.range_search(query, 0.6)) == _pairs(
                fresh.range_search(query, 0.6)
            )
        for got, want in zip(
            index.knn_search_batch(queries, 7), fresh.knn_search_batch(queries, 7)
        ):
            assert _pairs(got) == _pairs(want)
        for got, want in zip(
            index.range_search_batch(queries, 0.6),
            fresh.range_search_batch(queries, 0.6),
        ):
            assert _pairs(got) == _pairs(want)

    def test_batch_counters_equal_scalar_after_mutations(self, name, rng):
        n = 40
        vectors = rng.random((n, DIM))
        table = {i: vectors[i] for i in range(n)}
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(n)), vectors
        )
        # Stay below the rebuild threshold so the overlay is exercised.
        index.delete([3, 9])
        extra = rng.random((5, DIM))
        index.insert_batch([900, 901, 902, 903, 904], extra)

        queries = rng.random((3, DIM))
        batched = index.knn_search_batch(queries, 5)
        total = index.last_stats
        scalar = SearchStats()
        for query, answer in zip(queries, batched):
            assert index.knn_search(query, 5) == answer
            scalar.merge(index.last_stats)
        assert total == scalar

    def test_counting_metric_agrees_with_stats(self, name, rng):
        if name == "kdtree":
            pytest.skip("KDTree requires a bare Minkowski metric by design")
        counting = CountingMetric(EuclideanDistance())
        n = 40
        vectors = rng.random((n, DIM))
        index = INDEX_FACTORIES[name](counting).build(list(range(n)), vectors)
        index.delete([1, 2])
        index.insert_batch([800, 801, 802], rng.random((3, DIM)))

        query = rng.random(DIM)
        before = counting.count
        index.knn_search(query, 6)
        assert counting.count - before == index.last_stats.distance_computations
        before = counting.count
        index.range_search(query, 0.7)
        assert counting.count - before == index.last_stats.distance_computations

    def test_insert_validation(self, name, rng):
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(10)), rng.random((10, DIM))
        )
        with pytest.raises(IndexingError, match="already indexed"):
            index.insert_batch([3], rng.random((1, DIM)))
        with pytest.raises(IndexingError, match="dim"):
            index.insert_batch([100], rng.random((1, DIM + 2)))
        with pytest.raises(IndexingError, match="non-finite"):
            index.insert_batch([100], np.full((1, DIM), np.nan))
        with pytest.raises(IndexingError, match="duplicate"):
            index.insert_batch([100, 100], rng.random((2, DIM)))
        with pytest.raises(IndexingError, match="ids but"):
            index.insert_batch([100], rng.random((2, DIM)))

    def test_delete_validation(self, name, rng):
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(10)), rng.random((10, DIM))
        )
        with pytest.raises(IndexingError, match="not indexed"):
            index.delete([99])
        index.delete([4])
        with pytest.raises(IndexingError, match="not indexed"):
            index.delete([4])  # double delete
        with pytest.raises(IndexingError, match="not indexed"):
            index.vectors_of([4])  # deleted rows cannot be read back either
        with pytest.raises(IndexingError, match="duplicate"):
            index.delete([5, 5])

    def test_unbuilt_index_buffers_then_first_rebuild_equals_fresh(self, name, rng):
        """Before the first build, inserts and deletes go to the pending
        buffer (deleted rows stay, their flags clear, until they
        outnumber the live ones, and their ids cannot come back while
        held); ``rebuild()`` is then the first build, over the survivors
        in arrival order — the same index a fresh ``build`` over them
        gives: ids, distances and counts."""
        rows = rng.random((40, DIM))
        unbuilt = INDEX_FACTORIES[name](EuclideanDistance())
        unbuilt.insert_batch(list(range(30)), rows[:30])
        unbuilt.delete([3, 17, 29])
        unbuilt.insert_batch([45, 40, 41], rows[30:33])
        unbuilt.delete([40])
        with pytest.raises(IndexingError, match="not indexed"):
            unbuilt.delete([99])
        with pytest.raises(IndexingError, match="not indexed"):
            unbuilt.delete([17])  # already deleted
        with pytest.raises(IndexingError, match="not been built"):
            unbuilt.knn_search(rows[0], 3)
        assert unbuilt.n_pending == 33
        with pytest.raises(IndexingError, match="already indexed"):
            unbuilt.insert_batch([3], rows[33:34])  # its dead row is still held
        unbuilt.insert_batch([46], rows[33:34])
        assert unbuilt.n_pending == 34
        by_id = {
            **dict(enumerate(rows[:30])), 45: rows[30], 40: rows[31], 41: rows[32], 46: rows[33]
        }
        survivors = [i for i in [*range(30), 45, 40, 41] if i not in (3, 17, 29, 40)] + [46]
        assert unbuilt.size == len(survivors)
        assert unbuilt.live_ids() == survivors
        assert unbuilt.vectors_of([45, 46, 0]).tobytes() == np.stack(
            [by_id[45], by_id[46], by_id[0]]
        ).tobytes()
        with pytest.raises(IndexingError, match="not indexed"):
            unbuilt.vectors_of([17])

        unbuilt.rebuild()
        fresh = INDEX_FACTORIES[name](EuclideanDistance()).build(
            survivors, np.stack([by_id[i] for i in survivors])
        )
        assert unbuilt.n_pending == 0 and unbuilt.size == fresh.size
        assert unbuilt.build_stats == fresh.build_stats
        queries = rng.random((5, DIM))
        for query in queries:
            assert _pairs(unbuilt.knn_search(query, 6)) == _pairs(fresh.knn_search(query, 6))
            assert unbuilt.last_stats == fresh.last_stats
            assert _pairs(unbuilt.range_search(query, 0.6)) == _pairs(
                fresh.range_search(query, 0.6)
            )
            assert unbuilt.last_stats == fresh.last_stats

    def test_first_build_drops_rows_deleted_before_it(self, name, rng):
        """Deletes before the first build only clear flags — the block is
        not copied per delete — and the first build leaves the dead rows
        out: it equals a fresh build over the survivors."""
        rows = rng.random((20, DIM))
        unbuilt = INDEX_FACTORIES[name](EuclideanDistance())
        unbuilt.insert_batch(list(range(20)), rows)
        for item_id in (2, 7, 11):
            unbuilt.delete([item_id])
        assert unbuilt.n_pending == 20  # not compacted
        unbuilt.rebuild()
        survivors = [i for i in range(20) if i not in (2, 7, 11)]
        fresh = INDEX_FACTORIES[name](EuclideanDistance()).build(survivors, rows[survivors])
        assert (unbuilt.n_pending, unbuilt.size) == (0, len(survivors))
        assert unbuilt.build_stats == fresh.build_stats
        for query in rng.random((3, DIM)):
            assert _pairs(unbuilt.knn_search(query, 5)) == _pairs(fresh.knn_search(query, 5))
            assert unbuilt.last_stats == fresh.last_stats

    def test_rebuild_after_deleting_everything_then_inserting(self, name, rng):
        """Every id deleted (the rebuild keeps the overlay: nothing to
        build over), then enough new ascending ids to trigger a rebuild
        over pending rows alone — it equals a fresh build over them."""
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(40)), rng.random((40, DIM))
        )
        index.delete(list(range(40)))
        assert index.size == 0
        new_ids = list(range(100, 150))
        new_rows = rng.random((50, DIM))
        index.insert_batch(new_ids, new_rows)
        index.rebuild()
        fresh = INDEX_FACTORIES[name](EuclideanDistance()).build(new_ids, new_rows)
        assert sorted(index.live_ids()) == new_ids and index.size == 50
        assert index.vectors_of(new_ids).tobytes() == new_rows.tobytes()
        for query in rng.random((4, DIM)):
            assert _pairs(index.knn_search(query, 6)) == _pairs(fresh.knn_search(query, 6))
            assert _pairs(index.range_search(query, 0.6)) == _pairs(
                fresh.range_search(query, 0.6)
            )

    def test_failed_first_build_keeps_the_rows(self, name, rng):
        """A first build whose backend cannot take the block (a full
        disk, say) leaves every row readable and buildable."""

        class _FailOnce(MemoryBackendFactory):
            failed = False

            def adopt(self, block):
                if not self.failed:
                    self.failed = True
                    raise OSError("no space left on device")
                return super().adopt(block)

        rows = rng.random((30, DIM))
        unbuilt = INDEX_FACTORIES[name](EuclideanDistance())
        unbuilt.backend_factory = _FailOnce()
        unbuilt.insert_batch(list(range(30)), rows)
        unbuilt.delete([4, 9])
        with pytest.raises(OSError):
            unbuilt.rebuild()
        survivors = [i for i in range(30) if i not in (4, 9)]
        assert not unbuilt.is_built and unbuilt.size == len(survivors)
        assert sorted(unbuilt.live_ids()) == survivors
        assert unbuilt.vectors_of(survivors).tobytes() == rows[survivors].tobytes()
        unbuilt.rebuild()
        fresh = INDEX_FACTORIES[name](EuclideanDistance()).build(survivors, rows[survivors])
        assert unbuilt.size == fresh.size
        for query in rng.random((4, DIM)):
            assert _pairs(unbuilt.knn_search(query, 6)) == _pairs(fresh.knn_search(query, 6))

    def test_empty_insert_and_delete_are_noops(self, name, rng):
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(8)), rng.random((8, DIM))
        )
        index.insert_batch([], np.empty((0, DIM)))
        index.delete([])
        assert index.size == 8

    def test_size_tracks_live_items(self, name, rng):
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(20)), rng.random((20, DIM))
        )
        index.insert_batch([500, 501], rng.random((2, DIM)))
        assert index.size == 22
        index.delete([0, 500])
        assert index.size == 20


class TestOverlayMechanics:
    """The pending buffer and dead rows, on a static tree."""

    def test_static_tree_buffers_then_rebuilds_at_threshold(self, rng):
        # Trigger: pending + dead >= max(rebuild_min,
        # rebuild_threshold * core).  With 20 core items and
        # rebuild_min=8, the threshold sits at 8 overlay entries.
        index = VPTree(EuclideanDistance()).build(
            list(range(20)), rng.random((20, DIM))
        )
        index.rebuild_min = 8  # shrink the floor for the test
        index.insert_batch(list(range(100, 105)), rng.random((5, DIM)))
        assert index.n_pending == 5
        index.delete([0, 1])
        # 5 pending + 2 dead = 7 < 8: still buffered.  One more insert
        # crosses the threshold and folds the overlay in.
        assert len(index._ids) == 20
        index.insert_batch([105], rng.random((1, DIM)))
        assert index.n_pending == 0 and len(index._ids) == index.size == 24

    def test_dynamic_structures_never_buffer(self, rng):
        for name in sorted(DYNAMIC_INSERT):
            index = INDEX_FACTORIES[name](EuclideanDistance()).build(
                list(range(20)), rng.random((20, DIM))
            )
            index.insert_batch([300, 301], rng.random((2, DIM)))
            assert index.n_pending == 0, name
        for name in sorted(DYNAMIC_DELETE):
            index = INDEX_FACTORIES[name](EuclideanDistance()).build(
                list(range(20)), rng.random((20, DIM))
            )
            index.delete([0, 19])
            assert len(index._ids) == index.size == 18, name

    def test_explicit_rebuild_folds_overlay(self, rng):
        index = VPTree(EuclideanDistance()).build(
            list(range(30)), rng.random((30, DIM))
        )
        index.delete([2])
        index.insert_batch([700], rng.random((1, DIM)))
        table = {
            nb.id: None for nb in index.range_search(np.zeros(DIM), np.inf)
        }
        index.rebuild()
        assert index.n_pending == 0 and len(index._ids) == index.size
        assert set(
            nb.id for nb in index.range_search(np.zeros(DIM), np.inf)
        ) == set(table)

    def test_deleting_everything_yields_empty_results(self, rng):
        index = VPTree(EuclideanDistance()).build(
            list(range(5)), rng.random((5, DIM))
        )
        index.delete(list(range(5)))
        assert index.size == 0
        query = rng.random(DIM)
        assert index.knn_search(query, 3) == []
        assert index.range_search(query, 10.0) == []

    def test_tombstoned_id_cannot_be_reinserted_before_rebuild(self, rng):
        index = VPTree(EuclideanDistance()).build(
            list(range(10)), rng.random((10, DIM))
        )
        index.delete([4])
        with pytest.raises(IndexingError, match="already indexed"):
            index.insert_batch([4], rng.random((1, DIM)))

    def test_knn_at_tombstone_boundary_matches_fresh(self, rng):
        # Regression shape: ties at the k-th distance straddling
        # tombstones must resolve exactly like a fresh build.
        vectors = np.zeros((6, DIM))
        vectors[:, 0] = [0.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        index = LinearScanIndex(ManhattanDistance()).build(
            list(range(6)), vectors
        )
        tree = VPTree(ManhattanDistance()).build(list(range(6)), vectors)
        for structure in (index, tree):
            structure.delete([1, 3])
        table = {i: vectors[i] for i in (0, 2, 4, 5)}
        fresh = _fresh("vptree", table, ManhattanDistance())
        query = np.zeros(DIM)
        for structure in (index, tree):
            assert _pairs(structure.knn_search(query, 3)) == _pairs(
                fresh.knn_search(query, 3)
            )


class _EveryPendingRow(VPTree):
    """The overlay before it selected rows: a ``Neighbor`` for every
    pending row, then the caller's sort — the reference expression."""

    def _overlay_range(self, query, radius, result):
        live = self.live_mask.bits
        result = [nb for nb in result if live[nb.id]]
        if self._pending:
            distances = self._dist_batch(query, self._pending.block)
            result.extend(
                Neighbor(item_id, float(d))
                for item_id, d in zip(self._pending.ids.tolist(), distances.tolist())
                if d <= radius and live[item_id]
            )
        return result

    def _overlay_knn(self, query, result, k):
        live = self.live_mask.bits
        if self._pending:
            distances = self._dist_batch(query, self._pending.block)
            result.extend(
                Neighbor(item_id, float(d))
                for item_id, d in zip(self._pending.ids.tolist(), distances.tolist())
                if live[item_id]
            )
        return result


_GRID = st.integers(0, 2).map(float)  # few values: duplicates and ties


@st.composite
def _overlay_case(draw):
    n_core = draw(st.integers(1, 12))
    n_pending = draw(st.integers(0, 12))
    ids = draw(st.permutations(range(n_core + n_pending)))  # sources interleave by id
    rows = draw(st.lists(st.lists(_GRID, min_size=2, max_size=2),
                         min_size=n_core + n_pending, max_size=n_core + n_pending))
    dead = draw(st.lists(st.sampled_from(ids), unique=True, max_size=n_core + n_pending))
    queries = draw(st.lists(st.lists(_GRID, min_size=2, max_size=2), min_size=1, max_size=3))
    k = draw(st.integers(1, 15))  # often more than the pending rows
    radius = draw(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]))
    return n_core, list(ids), np.array(rows), dead, np.array(queries), k, radius


@settings(max_examples=150, deadline=None)
@given(case=_overlay_case())
def test_selecting_overlay_equals_every_pending_row(case):
    n_core, ids, rows, dead, queries, k, radius = case
    answers = []
    for cls in (VPTree, _EveryPendingRow):
        index = cls(EuclideanDistance(), leaf_size=2).build(ids[:n_core], rows[:n_core])
        index.rebuild_min = 10**9  # keep the overlay: no threshold rebuild
        index.insert_batch(ids[n_core:], rows[n_core:])
        index.delete(dead)  # core rows stay dead, pending ones leave
        seen = []
        for query in queries:
            seen.append((index.knn_search(query, k), index.last_stats))
            seen.append((index.knn_search_approximate(query, k), index.last_stats))
            seen.append((index.range_search(query, radius), index.last_stats))
        seen.append((index.knn_search_batch(queries, k), index.last_stats))
        seen.append((index.range_search_batch(queries, radius), index.last_stats))
        answers.append(seen)
    assert answers[0] == answers[1]


class TestApproximateAndVariantEntryPoints:
    def test_vptree_approximate_covers_live_set(self, rng):
        n = 50
        vectors = rng.random((n, DIM))
        index = VPTree(EuclideanDistance()).build(list(range(n)), vectors)
        index.delete([0, 1])
        index.insert_batch([400, 401], rng.random((2, DIM)))
        query = rng.random(DIM)
        exact = index.knn_search(query, 6)
        approx = index.knn_search_approximate(query, 6, epsilon=0.0)
        assert _pairs(approx) == _pairs(exact)
        budgeted = index.knn_search_approximate(
            query, 6, max_distance_computations=10
        )
        assert all(nb.id not in (0, 1) for nb in budgeted)

    def test_antipole_ids_only_range_respects_overlay(self, rng):
        n = 40
        vectors = rng.random((n, DIM))
        index = AntipoleTree(EuclideanDistance()).build(list(range(n)), vectors)
        index.delete([5, 6])
        index.insert_batch([600], rng.random((1, DIM)))
        query = rng.random(DIM)
        ids = index.range_search_ids(query, 0.8)
        exact = [nb.id for nb in index.range_search(query, 0.8)]
        assert sorted(ids) == sorted(exact)
        assert 5 not in ids and 6 not in ids

    def test_mtree_scalar_insert_still_works(self, rng):
        index = MTree(EuclideanDistance()).build(
            list(range(12)), rng.random((12, DIM))
        )
        vector = rng.random(DIM)
        index.insert(99, vector)
        assert index.size == 13
        hit = index.knn_search(vector, 1)[0]
        assert hit.id == 99 and hit.distance == 0.0


class TestLAESAPivotDeletion:
    def test_deleting_a_pivot_object_keeps_results_exact(self, rng):
        n = 30
        vectors = rng.random((n, DIM))
        index = LAESAIndex(EuclideanDistance(), n_pivots=4).build(
            list(range(n)), vectors
        )
        pivots = index.pivot_ids
        index.delete(pivots[:2])  # the pivot *objects* leave the data
        assert index.n_pivots == 4  # the anchors survive
        assert index.pivot_ids == pivots
        table = {i: vectors[i] for i in range(n) if i not in pivots[:2]}
        fresh = _fresh("laesa", table)
        query = rng.random(DIM)
        assert _pairs(index.knn_search(query, 5)) == _pairs(
            fresh.knn_search(query, 5)
        )
        assert _pairs(index.range_search(query, 0.7)) == _pairs(
            fresh.range_search(query, 0.7)
        )
        assert all(nb.id not in pivots[:2] for nb in index.knn_search(query, n))


class TestAmortizedCoreGrowth:
    """Capacity-doubled core buffers: amortized appends, bit-exact results.

    ISSUE 9 tentpole (a): ``_append_core``/``_remove_core`` used to copy
    the whole (n, d) core per mutation (O(m·n) for a stream of m
    mutations).  The :class:`~repro.db.backend.MemoryBackend` store must
    (1) leave every query bit-identical to a fresh build after long
    randomized add/remove streams, and (2) reallocate only
    O(log(growth)) times — never once per append.
    """

    @pytest.mark.parametrize("name", sorted(DYNAMIC_INSERT))
    def test_long_mutation_stream_matches_fresh_build(self, name, rng):
        n = 24
        vectors = rng.random((n, DIM))
        table = {i: vectors[i] for i in range(n)}
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(n)), vectors
        )
        next_id = 1000
        for round_ in range(40):
            count = int(rng.integers(1, 5))
            fresh_ids = list(range(next_id, next_id + count))
            next_id += count
            block = rng.random((count, DIM))
            index.insert_batch(fresh_ids, block)
            for item_id, vector in zip(fresh_ids, block):
                table[item_id] = vector
            if name in DYNAMIC_DELETE and len(table) > 8 and rng.random() < 0.4:
                doomed = [
                    int(i)
                    for i in rng.choice(sorted(table), size=3, replace=False)
                ]
                index.delete(doomed)
                for item_id in doomed:
                    del table[item_id]
            if round_ % 10 == 9:
                fresh = _fresh(name, table)
                query = rng.random(DIM)
                assert _pairs(index.knn_search(query, 7)) == _pairs(
                    fresh.knn_search(query, 7)
                )
                assert _pairs(index.range_search(query, 0.6)) == _pairs(
                    fresh.range_search(query, 0.6)
                )
        fresh = _fresh(name, table)
        assert index.size == fresh.size == len(table)
        for query in rng.random((4, DIM)):
            assert _pairs(index.knn_search(query, 9)) == _pairs(
                fresh.knn_search(query, 9)
            )

    @pytest.mark.parametrize("name", sorted(DYNAMIC_INSERT))
    def test_appends_do_not_recopy_storage_each_time(self, name, rng):
        """The backing array identity changes O(log n) times, not per append."""
        n = 16
        index = INDEX_FACTORIES[name](EuclideanDistance()).build(
            list(range(n)), rng.random((n, DIM))
        )
        appends = 120
        bases = set()
        next_id = 1000
        for i in range(appends):
            index.insert_batch([next_id], rng.random((1, DIM)))
            next_id += 1
            bases.add(id(index._core._rows))
        # Capacity doubling from 16 over 120 single-row appends needs at
        # most ceil(log2((16 + 120) / 16)) = 4 reallocations; a
        # copy-per-append implementation would produce ~120 distinct
        # backing arrays.
        assert len(bases) <= 5

    def test_growable_rows_view_is_readonly_and_amortized(self, rng):
        from repro.db.backend import MemoryBackend

        store = MemoryBackend(rng.random((3, DIM)))
        view = store.view()
        assert view.shape == (3, DIM)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

        backing = {id(store._rows)}
        for _ in range(200):
            store.append(rng.random((1, DIM)))
            backing.add(id(store._rows))
        assert store.n_rows == 203
        assert len(backing) <= 7  # ~log2(203/8) reallocations, not 200
        assert store.capacity >= store.n_rows

    def test_growable_rows_take_shrinks_at_quarter_occupancy(self, rng):
        from repro.db.backend import MemoryBackend

        store = MemoryBackend(rng.random((256, DIM)))
        full_capacity = store.capacity
        keep = np.arange(8)
        kept_rows = store.view()[keep].copy()
        view = store.take(keep)
        assert store.n_rows == 8
        assert store.capacity < full_capacity  # shrank, memory returned
        np.testing.assert_array_equal(view, kept_rows)

    def test_laesa_pivot_table_growth_is_amortized(self, rng):
        index = LAESAIndex(EuclideanDistance(), n_pivots=4).build(
            list(range(16)), rng.random((16, DIM))
        )
        bases = set()
        next_id = 1000
        for _ in range(120):
            index.insert_batch([next_id], rng.random((1, DIM)))
            next_id += 1
            bases.add(id(index._table_store._rows))
        assert len(bases) <= 5
