"""LAESA: the pivot-table index (Micó, Oncina & Vidal, 1994).

Exactly contemporary with the reproduced paper, LAESA (Linear
Approximating and Eliminating Search Algorithm) takes the opposite
trade from the trees: instead of a hierarchy, it precomputes and stores
the distance from every database object to ``m`` fixed **pivots**
(an ``n x m`` table).  At query time:

1. compute the query's distance to each pivot (``m`` metric calls),
2. every object ``x`` now has a free lower bound
   ``L(x) = max_p | d(q, p) - d(x, p) |`` (triangle inequality),
3. scan candidates in increasing ``L(x)`` order, computing true
   distances only while ``L(x)`` does not exceed the current search
   radius (range) or k-th best (k-NN).

Cost per query is ``m + (candidates that survive the bound)`` distance
computations plus O(n·m) cheap arithmetic — the classic trade of memory
(the table) for metric evaluations.  Pivots are chosen by the standard
maximum-minimum-distance greedy sweep.

The pivot machinery is batched wherever the evaluation order does not
matter: the build sweeps and the pivot table go through the metric's
batch kernel, query-time pivot distances are one batch call
(the *batch prefilter* — bounds for all n objects from m evaluations),
and range queries refine all surviving candidates in a second batch
call.  Only the k-NN refinement stays sequential: its early-termination
rule (stop when the lower bound exceeds the running k-th best) depends
on each previous true distance, and short-circuiting evaluations is the
whole point of the structure.  Counted distance computations are
identical to the scalar path throughout.
"""

from __future__ import annotations

import numpy as np

from repro.db.backend import VectorBackend, sweep
from repro.index.base import (
    _ROUNDING_SLACK,
    MetricIndex,
    Neighbor,
    check_count,
    offer_candidates,
)
from repro.metrics.base import Metric

__all__ = ["LAESAIndex"]


class LAESAIndex(MetricIndex):
    """Pivot-table (LAESA) index.

    Parameters
    ----------
    metric:
        Any true metric.
    n_pivots:
        Number of pivots ``m``.  More pivots tighten the lower bound
        (fewer true distances at query time) but cost more per query in
        pivot evaluations and more memory; the sweet spot grows with
        intrinsic dimensionality.  Default 8.
    seed:
        Seed for the first pivot choice (the rest are deterministic
        max-min selections).
    """

    def __init__(self, metric: Metric, *, n_pivots: int = 8, seed: int = 0) -> None:
        super().__init__(metric)
        self._n_pivots = check_count("n_pivots", n_pivots, 1)
        self._seed = seed
        #: Table row of each pivot object, -1 once the object was deleted
        #: (its column survives — a pivot is just a reference anchor).
        self._pivot_rows: list[int] = []
        self._pivot_ids: list[int] = []
        #: (n, m) object-to-pivot distances behind the same storage
        #: backend as the core rows, so per-insert growth is amortized
        #: O(m) in memory and the table pages to disk under ``mmap``.
        self._table_store: VectorBackend | None = None
        self._pivot_vectors: np.ndarray | None = None  # (m, d) pivot rows

    def close(self) -> None:
        super().close()
        if self._table_store is not None:
            self._table_store.close()

    @property
    def n_pivots(self) -> int:
        """Number of pivots actually used (capped at the build size)."""
        return len(self._pivot_rows)

    @property
    def pivot_ids(self) -> list[int]:
        """Ids of the chosen pivot objects (kept even after deletion —
        the pivot columns remain valid lower-bound anchors)."""
        return list(self._pivot_ids)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        n = vectors.shape[0]
        m = min(self._n_pivots, n)
        rng = np.random.default_rng(self._seed)

        # Greedy max-min pivot selection: start random, then repeatedly
        # take the object farthest from the chosen pivot set.  Each sweep
        # is one batched evaluation over the whole table (n counted
        # computations, as before).
        first = int(rng.integers(n))
        pivot_rows = [first]
        min_dist = self._build_dist_batch(vectors[first], vectors)
        while len(pivot_rows) < m:
            candidate = int(np.argmax(min_dist))
            if min_dist[candidate] <= 0.0:
                break  # remaining objects duplicate existing pivots
            pivot_rows.append(candidate)
            distances = self._build_dist_batch(vectors[candidate], vectors)
            min_dist = np.minimum(min_dist, distances)

        self._pivot_rows = pivot_rows
        self._pivot_ids = ids[pivot_rows].tolist()
        self._pivot_vectors = vectors[pivot_rows].copy()
        # The pivot table re-uses no build distances (they were consumed
        # by the max-min sweep), so fill it explicitly.
        self._fill_table(vectors)
        self._build_stats.n_leaves = 1
        self._build_stats.extra["n_pivots"] = len(pivot_rows)

    def _fill_table(self, vectors: np.ndarray) -> None:
        """Adopt a fresh pivot table over ``vectors``: one counted
        evaluation per row and pivot, in :attr:`build_stats`."""
        assert self._pivot_vectors is not None
        table = np.empty((vectors.shape[0], len(self._pivot_vectors)))
        for column, pivot in enumerate(self._pivot_vectors):
            table[:, column] = self._build_dist_batch(pivot, vectors)
        previous = self._table_store
        self._table_store = self.backend_factory.adopt(table)
        if previous is not None:
            previous.close()

    def _insert_batch(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """True dynamic insertion: one new table row per object.

        Each inserted object costs exactly ``m`` metric evaluations (its
        distance to every pivot), counted in :attr:`build_stats` — the
        same per-object table cost the initial build pays.  The table
        rows land in the same capacity-doubled buffer scheme as the
        core vectors, so a mutation stream never re-copies the whole
        (n, m) table per insert.
        """
        assert self._table_store is not None and self._pivot_vectors is not None
        block = np.ascontiguousarray(vectors)
        new_rows = np.empty((block.shape[0], len(self._pivot_rows)))
        for column in range(len(self._pivot_rows)):
            new_rows[:, column] = self._build_dist_batch(
                self._pivot_vectors[column], block
            )
        self._table_store.append(new_rows)
        try:
            self._append_core(ids, vectors)
        except BaseException:  # the table must not outgrow the core
            self._table_store.take(np.arange(len(self._row_of)))
            raise

    def _reclaim_core(self) -> None:
        """True deletion: dead rows leave the table and the scan.  A dead
        pivot *object* stays a reference anchor (its column and vector
        survive), its lost table row marked by a -1 row index.

        Fails holding every row: the table is compacted first, and should
        the core's compaction then fail, the table (derived state) is
        refilled from the unchanged core.
        """
        assert self._table_store is not None and self._vectors is not None
        live = self.live_mask.of(self._ids)
        if live.all():
            return
        self._table_store.take(np.flatnonzero(live))
        try:
            self._compact_core()
        except BaseException:
            self._fill_table(self._vectors)
            raise
        self._pivot_rows = self._row_of.rows(self._pivot_ids).tolist()

    # ------------------------------------------------------------------
    # Shared query machinery
    # ------------------------------------------------------------------
    def _row(self, row: int) -> np.ndarray:
        """One core row, via the buffer pool on a bounded backend."""
        assert self._vectors is not None and self._core is not None
        if self._core.bounded:
            return self._core.rows([row])[0]
        return self._vectors[row]

    def _lower_bounds(
        self, query: np.ndarray
    ) -> tuple[np.ndarray, dict[int, float], float]:
        """``L(x) = max_p |d(q,p) - d(x,p)|`` for every object x.

        The batch prefilter: all m query-to-pivot distances in one
        batched evaluation, then bounds for every object with cheap
        arithmetic.  Also returns the exact query-to-pivot distances
        (keyed by row), which the searches re-use so pivots never cost a
        second evaluation, and the largest of them: a bound's rounding
        error scales with it, so a bound test allows
        ``_ROUNDING_SLACK * (t + far)`` over its threshold ``t``.
        """
        assert self._table_store is not None and self._pivot_vectors is not None
        pivot_distances = self._dist_batch(query, self._pivot_vectors)

        # One sweep of the table: the per-row max is block-independent,
        # so the bounds are bit-identical whatever blocks and parts.
        def bound(block: np.ndarray) -> np.ndarray:
            return np.abs(block - pivot_distances).max(axis=1)

        bounds = np.empty(len(self._row_of), dtype=np.float64)
        sweep(self._table_store, bound, bounds)
        known = {
            row: float(d)
            for row, d in zip(self._pivot_rows, pivot_distances)
            if row >= 0  # a deleted pivot object has no table row
        }
        return bounds, known, float(pivot_distances.max())

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        assert self._vectors is not None
        bounds, known, far = self._lower_bounds(query)
        candidates = np.flatnonzero(
            bounds <= radius + _ROUNDING_SLACK * (radius + far)
        )
        self._search_stats.leaves_visited += 1
        self._search_stats.nodes_pruned += len(bounds) - len(candidates)
        candidates = candidates[self.live_mask.bits[self._ids[candidates]]].tolist()
        # Pivots already have exact distances; refine the rest in one
        # batched evaluation (order is irrelevant for a range query).
        unknown = [row for row in candidates if row not in known]
        assert self._core is not None
        survivors = (
            self._core.rows(unknown)  # gathered through the buffer pool
            if self._core.bounded
            else self._vectors[unknown]
        )
        refined = dict(zip(unknown, self._dist_batch(query, survivors)))
        result: list[Neighbor] = []
        for row, item_id in zip(candidates, self._ids[candidates].tolist()):
            d = known.get(row)
            if d is None:
                d = float(refined[row])
            if d <= radius:
                result.append(Neighbor(item_id, d))
        return result

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        assert self._vectors is not None
        bounds, known, far = self._lower_bounds(query)
        order = np.argsort(bounds, kind="stable")
        ids, live = self._ids, self.live_mask.bits
        best: list[tuple[float, int]] = []  # see offer_candidates
        tau = np.inf
        examined = 0
        for row in order.tolist():
            if bounds[row] > tau + _ROUNDING_SLACK * (tau + far):
                break  # everything later has an even larger lower bound
            item_id = int(ids[row])
            if not live[item_id]:
                continue  # a dead row awaiting compaction
            d = known.get(row)
            if d is None:
                d = float(self._dist_batch(query, self._row(row)[None, :])[0])
            examined += 1
            tau = offer_candidates(best, k, (item_id,), (d,), live)
        self._search_stats.leaves_visited += 1
        self._search_stats.nodes_pruned += len(order) - examined
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in best]
