"""The M-tree — a dynamic, paged metric index.

The other trees in this package are *static*: they take the whole
database at build time and re-organize from scratch after any change.
A production image database of the reproduced era could not afford that —
pictures arrive one at a time — so the disk-oriented answer was the
M-tree (Ciaccia/Patella/Zezula): a balanced, page-structured metric tree
that grows bottom-up through node splits, exactly like a B-tree, while
pruning with the triangle inequality, exactly like the VP-tree.

Structure
---------
Every node is one fixed-capacity *page* of entries.

* A **leaf entry** stores an object plus its distance to the routing
  object of the parent node (``d_parent``).
* A **routing entry** stores a routing object, a *covering radius* ``r``
  such that every object in its subtree is within ``r`` of it, its
  ``d_parent``, and a child-page pointer.

Insertion descends to the leaf whose routing objects need the least
covering-radius enlargement, then splits overflowing pages upward:
two entries are *promoted* (policy-controlled), the rest partitioned
around them by the generalized-hyperplane rule, and the parent receives
the two new routing entries — the tree stays balanced by construction.

Search uses two nested applications of the triangle inequality:

1. **parent filtering** — ``|d(q, parent) - d_parent| - r > radius``
   proves a subtree empty *without computing any new distance*;
2. **covering-radius filtering** — ``d(q, routing) - r > radius`` prunes
   after one distance evaluation.

k-NN search is best-first over a priority queue of subtrees keyed by
their distance lower bound, shrinking the candidate radius as results
surface.

Layout.  The tree is a struct of lists, not an object graph, like the
four static trees — but because it grows in place its pages cannot be
row ranges of a tree-ordered block.  Instead every entry, routing
entries included, *is* a row of the index's one ``(n, d)`` core (the
storage backend's; a routing object is always a promoted copy of a
stored object, so there is nothing else to keep): rows are appended to
the core in arrival order and never move.  Per page, indexed by page
number, the tree keeps a leaf flag, its parent page and one list per
entry field — core row, covering radius, ``d_parent`` and child page
(``-1`` for a leaf entry).  A page's rows are gathered from the core
when the page is visited, so on a bounded backend they come through OS
paging and nothing is pinned in RAM.

Traversal.  Range search evaluates each visited page's parent-filter
survivors in one kernel call over the gathered rows.  k-NN search makes
one one-row kernel call per counted distance: its parent filter tests
against tau, which shrinks as entries of the same page are offered, so
evaluating a page up front would pay for entries the search never needs.
Insertion pays one batched call per level of its descent, and a split
one call per anchor row of the pairwise matrix.

``SearchStats.nodes_visited`` counts internal pages read and
``leaves_visited`` leaf pages read — together they are the index's page
I/O per query, the second cost axis (after distance computations) that
experiment T9 reports.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.errors import IndexingError
from repro.index.base import MetricIndex, Neighbor, check_count, offer_candidates
from repro.metrics.base import Metric

__all__ = ["MTree", "PROMOTION_POLICIES"]

#: Promotion policies accepted by :class:`MTree`.
PROMOTION_POLICIES = ("mmrad", "maxdist", "random")


class MTree(MetricIndex):
    """Dynamic paged metric tree supporting incremental insertion.

    Parameters
    ----------
    metric:
        Any true metric (both pruning rules are triangle-inequality
        arguments).
    capacity:
        Maximum entries per page (default 8); a page holding more splits.
        Must be at least 4 so splits produce two viable pages.
    promotion:
        Split-promotion policy:

        ``'mmrad'`` (default)
            Examine every candidate pair and keep the one minimizing the
            larger of the two resulting covering radii — the slowest and
            best policy.
        ``'maxdist'``
            Promote the two farthest-apart entries (one pass over the
            pairwise matrix, no partition trials).
        ``'random'``
            Promote a random pair — the fast baseline that experiment T9
            compares the informed policies against.
    seed:
        Seed for the ``'random'`` policy (and tie-breaking shuffles).

    Notes
    -----
    ``build(ids, vectors)`` performs sequential insertions, so build cost
    is directly comparable with the static trees' bulk construction, and
    :meth:`insert` / :meth:`MetricIndex.insert_batch` keep working after
    the initial build — the property the static indexes lack.  A deleted
    entry stays in its page, its live flag clear (exactly how the era's
    implementations handled it, at the catalog layer), until the
    threshold rebuild reclaims the pages; see ``docs/mutability.md``.
    """

    def __init__(
        self,
        metric: Metric,
        *,
        capacity: int = 8,
        promotion: str = "mmrad",
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        if promotion not in PROMOTION_POLICIES:
            raise IndexingError(
                f"promotion must be one of {PROMOTION_POLICIES}; got {promotion!r}"
            )
        self._capacity = check_count("capacity", capacity, 4)
        self._promotion = promotion
        self._seed = seed
        self._clear()

    def _clear(self) -> None:
        # The paged tree (see the module docstring): the root page number
        # (-1 = empty) and, per page, its leaf flag, its parent page and
        # one list per entry field.  Every build draws its promotions
        # from a fresh generator, so a rebuild repeats a fresh build.
        self._rng = np.random.default_rng(self._seed)
        self._root, self._n_splits = -1, 0
        self._leaf: list[bool] = []
        self._parent: list[int] = []
        self._entry_rows: list[list[int]] = []
        self._radius: list[list[float]] = []
        self._d_parent: list[list[float]] = []
        self._child: list[list[int]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum entries per page."""
        return self._capacity

    @property
    def promotion(self) -> str:
        """The configured split-promotion policy."""
        return self._promotion

    @property
    def n_splits(self) -> int:
        """Page splits performed since the last build."""
        return self._n_splits

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        if self._root < 0:
            return 0
        levels, page = 1, self._root
        while not self._leaf[page]:
            page = self._child[page][0]
            levels += 1
        return levels

    @property
    def n_pages(self) -> int:
        """Total pages (internal + leaf) currently allocated."""
        return len(self._leaf)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        self._clear()
        # Row i of the working block is the i-th item; the backend takes
        # the block unchanged, so the rows stay valid as core rows.
        for row in range(vectors.shape[0]):
            self._insert(row, vectors)
        stats = self._build_stats
        stats.n_leaves = sum(self._leaf)
        stats.n_nodes = self.n_pages - stats.n_leaves
        stats.depth = self.height - 1
        stats.extra["n_splits"] = self._n_splits

    def insert(self, item_id: int, vector: np.ndarray) -> None:
        """Insert one object into an already-built tree.

        Scalar convenience over :meth:`MetricIndex.insert_batch` (the
        tree grows through the same descend-and-split path either way).

        Raises
        ------
        IndexingError
            If the tree has not been built, the id already exists, or the
            vector dimensionality disagrees with the index.
        """
        if not self.is_built:
            raise IndexingError("insert() requires a built index; call build() first")
        self.insert_batch([item_id], np.reshape(vector, (1, -1)))

    def _insert_batch(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """True dynamic insertion: the rows join the core, then each
        descends to its best leaf, splitting upward.

        Each object pays the paper's insertion cost (one batched routing
        evaluation per level plus any split matrices), counted in
        :attr:`build_stats` — the structure absorbs the items
        immediately, no pending buffer.
        """
        first = len(self._row_of)
        self._append_core(ids, vectors)
        for row in range(first, first + len(ids)):
            self._insert(row, self._vectors)

    def _add_page(self, leaf, parent, rows, radius, d_parent, child) -> int:
        """Allocate a page from its fields; returns its number."""
        page = len(self._leaf)
        self._leaf.append(leaf)
        self._parent.append(parent)
        self._entry_rows.append(rows)
        self._radius.append(radius)
        self._d_parent.append(d_parent)
        self._child.append(child)
        return page

    def _insert(self, row: int, block: np.ndarray) -> None:
        if self._root < 0:
            self._root = self._add_page(True, -1, [row], [0.0], [0.0], [-1])
            return

        # Descend to the best leaf, remembering the distance to each
        # chosen routing object so d_parent needs no recomputation.
        # Every routing entry's distance is needed (no short-circuit in
        # the choice rule), so each level is one batched evaluation.
        vector = block[row]
        page, d_to_parent = self._root, 0.0
        while not self._leaf[page]:
            radii = self._radius[page]
            distances = self._build_dist_batch(
                vector, block.take(self._entry_rows[page], axis=0)
            ).tolist()
            best, best_d, best_enlargement = 0, np.inf, np.inf
            for i, (d, r) in enumerate(zip(distances, radii)):
                enlargement = max(0.0, d - r)
                if (enlargement, d) < (best_enlargement, best_d):
                    best, best_d, best_enlargement = i, d, enlargement
            radii[best] = max(radii[best], best_d)
            page, d_to_parent = self._child[page][best], best_d

        self._entry_rows[page].append(row)
        self._radius[page].append(0.0)
        self._d_parent[page].append(d_to_parent)
        self._child[page].append(-1)
        self._split(page, block)

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def _split(self, page: int, block: np.ndarray) -> None:
        """Split ``page`` while it overflows, then its parent, upward."""
        while len(self._entry_rows[page]) > self._capacity:
            self._n_splits += 1
            rows, radii = self._entry_rows[page], self._radius[page]
            children = self._child[page]
            n = len(rows)
            # Upper-triangle pairwise matrix: one batched sweep per anchor
            # (same n(n-1)/2 counted evaluations as the scalar double loop).
            entries = block.take(rows, axis=0)
            matrix = np.zeros((n, n))
            for i in range(n - 1):
                distances = self._build_dist_batch(entries[i], entries[i + 1 :])
                matrix[i, i + 1 :] = distances
                matrix[i + 1 :, i] = distances
            pairwise = matrix.tolist()  # read one entry at a time below

            i1, i2 = self._promote(radii, pairwise)
            group1, group2 = self._partition(n, pairwise, i1, i2)
            # The page keeps the first group, a new page takes the second;
            # each entry's d_parent becomes its distance to the promoted
            # object, and each half yields one routing entry.
            leaf, parent = self._leaf[page], self._parent[page]
            left, right = page, self._add_page(leaf, parent, [], [], [], [])
            routing = []
            for half, promoted, group in ((left, i1, group1), (right, i2, group2)):
                d_parent = [pairwise[promoted][j] for j in group]
                self._entry_rows[half] = [rows[j] for j in group]
                self._radius[half] = [radii[j] for j in group]
                self._d_parent[half] = d_parent
                self._child[half] = [children[j] for j in group]
                if not leaf:
                    for child in self._child[half]:
                        self._parent[child] = half
                radius = max(d + radii[j] for d, j in zip(d_parent, group))
                routing.append((rows[promoted], radius, half))

            if parent < 0:
                # The root split: the tree grows one level.
                rows, radii, children = map(list, zip(*routing))
                self._root = self._add_page(False, -1, rows, radii, [0.0] * 2, children)
                self._parent[left] = self._parent[right] = self._root
                return

            # The two new routing entries replace the page's old one, at
            # the end of the parent page.
            slot = self._child[parent].index(page)
            for column in (self._entry_rows, self._radius, self._d_parent, self._child):
                del column[parent][slot]
            grandparent = self._parent[parent]
            if grandparent >= 0:
                up = self._child[grandparent].index(parent)
                up_vector = block[self._entry_rows[grandparent][up]]
            for row, radius, child in routing:
                d_parent = 0.0
                if grandparent >= 0:
                    d_parent = float(
                        self._build_dist_batch(block[row], up_vector[None, :])[0]
                    )
                    # A promoted object may lie farther from the grandparent
                    # routing object than anything seen before.
                    self._radius[grandparent][up] = max(
                        self._radius[grandparent][up], d_parent + radius
                    )
                self._entry_rows[parent].append(row)
                self._radius[parent].append(radius)
                self._d_parent[parent].append(d_parent)
                self._child[parent].append(child)
            page = parent

    def _promote(
        self, radii: list[float], pairwise: list[list[float]]
    ) -> tuple[int, int]:
        n = len(radii)
        if self._promotion == "random":
            i1, i2 = self._rng.choice(n, size=2, replace=False)
            return int(i1), int(i2)
        if self._promotion == "maxdist":
            flat = int(np.argmax(pairwise))
            return flat // n, flat % n
        # mmrad: try every pair, keep the one whose generalized-hyperplane
        # partition yields the smallest maximum covering radius.
        best_pair = (0, 1)
        best_score = np.inf
        for i1, i2 in itertools.combinations(range(n), 2):
            group1, group2 = self._partition(n, pairwise, i1, i2)
            row1, row2 = pairwise[i1], pairwise[i2]
            r1 = max([row1[j] + radii[j] for j in group1])
            r2 = max([row2[j] + radii[j] for j in group2])
            score = max(r1, r2)
            if score < best_score:
                best_score, best_pair = score, (i1, i2)
        return best_pair

    @staticmethod
    def _partition(
        n: int, pairwise: list[list[float]], i1: int, i2: int
    ) -> tuple[list[int], list[int]]:
        """Generalized hyperplane: each entry joins its nearer promoted object.

        The promoted entries anchor their own sides, so neither side is
        empty; ties go to the smaller side to curb degeneracy when many
        entries are equidistant.
        """
        group1: list[int] = [i1]
        group2: list[int] = [i2]
        row1, row2 = pairwise[i1], pairwise[i2]
        for j in range(n):
            if j == i1 or j == i2:
                continue
            d1, d2 = row1[j], row2[j]
            if d1 < d2 or (d1 == d2 and len(group1) <= len(group2)):
                group1.append(j)
            else:
                group2.append(j)
        return group1, group2

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        vectors, ids = self._vectors, self._ids
        leaf, entry_rows, radius_of = self._leaf, self._entry_rows, self._radius
        d_parent_of, child_of = self._d_parent, self._child
        kernel = self._metric._kernel
        result: list[Neighbor] = []
        computed = visited = pruned = leaves = 0

        # (page, distance from the query to the page's routing object).
        stack: list[tuple[int, float | None]] = [(self._root, None)]
        pop, push = stack.pop, stack.append
        while stack:
            page, d_q_parent = pop()
            is_leaf = leaf[page]
            if is_leaf:
                leaves += 1
            else:
                visited += 1
            rows, radii = entry_rows[page], radius_of[page]
            # Parent filtering prunes without a new distance computation and
            # depends only on the parent distance, so the survivors are known
            # up front and their distances are one gathered evaluation.
            if d_q_parent is None:
                keep = range(len(rows))
                block = vectors.take(rows, axis=0)
            else:
                d_parents = d_parent_of[page]
                keep = [
                    i for i, r in enumerate(radii)
                    if abs(d_q_parent - d_parents[i]) <= radius + r
                ]
                pruned += len(rows) - len(keep)
                if not keep:
                    continue
                block = vectors.take([rows[i] for i in keep], axis=0)
            computed += len(keep)
            distances = kernel(query, block).tolist()
            if is_leaf:
                for i, d in zip(keep, distances):
                    if d <= radius:
                        result.append(Neighbor(ids.item(rows[i]), d))
                continue
            children = child_of[page]
            for i, d in zip(keep, distances):
                if d <= radius + radii[i]:
                    push((children[i], d))
                else:
                    pruned += 1

        self._record(computed, visited, pruned, leaves)
        return result

    # ------------------------------------------------------------------
    # k-NN search
    # ------------------------------------------------------------------
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        vectors, ids = self._vectors, self._ids
        leaf, entry_rows, radius_of = self._leaf, self._entry_rows, self._radius
        d_parent_of, child_of = self._d_parent, self._child
        kernel = self._metric._kernel
        # Best-first search: subtrees keyed by the lower bound of any
        # object they can contain; candidates kept in the k-best heap of
        # offer_candidates, whose k-th distance is tau.  Entries are
        # evaluated one kernel call each: the parent filter re-checks
        # against tau, which shrinks as entries of the same page are
        # offered, so later entries can be skipped entirely.
        heap: list[tuple[float, int]] = []
        live = self.live_mask.bits  # only live items are offered
        tau = np.inf
        computed = visited = pruned = leaves = 0
        tiebreak = itertools.count()
        queue: list[tuple[float, int, int, float | None]] = [
            (0.0, next(tiebreak), self._root, None)
        ]
        pop, push = heapq.heappop, heapq.heappush
        while queue:
            bound, _, page, d_q_parent = pop(queue)
            if bound > tau:
                pruned += 1
                continue
            is_leaf = leaf[page]
            if is_leaf:
                leaves += 1
            else:
                visited += 1
            radii, d_parents = radius_of[page], d_parent_of[page]
            children = child_of[page]
            for i, row in enumerate(entry_rows[page]):
                if (d_q_parent is not None
                        and abs(d_q_parent - d_parents[i]) - radii[i] > tau):
                    pruned += 1
                    continue
                computed += 1
                d = kernel(query, vectors[row : row + 1]).item()
                if is_leaf:
                    if d <= tau:
                        tau = offer_candidates(heap, k, (ids.item(row),), (d,), live)
                else:
                    child_bound = max(d - radii[i], 0.0)
                    if child_bound <= tau:
                        push(queue, (child_bound, next(tiebreak), children[i], d))
                    else:
                        pruned += 1

        self._record(computed, visited, pruned, leaves)
        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in heap]
