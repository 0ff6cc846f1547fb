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

* A **leaf entry** stores an object ``(id, vector)`` plus its distance to
  the routing object of the parent node (``d_parent``).
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
from repro.index.base import MetricIndex, Neighbor
from repro.metrics.base import Metric

__all__ = ["MTree", "PROMOTION_POLICIES"]

#: Promotion policies accepted by :class:`MTree`.
PROMOTION_POLICIES = ("mmrad", "maxdist", "random")


class _Entry:
    """One slot of a node page.

    Leaf entries have ``child is None`` and ``radius == 0``; routing
    entries carry the covering radius of — and the pointer to — a subtree.
    """

    __slots__ = ("item_id", "vector", "radius", "d_parent", "child")

    def __init__(
        self,
        item_id: int,
        vector: np.ndarray,
        *,
        radius: float = 0.0,
        d_parent: float = 0.0,
        child: "_Node | None" = None,
    ) -> None:
        self.item_id = item_id
        self.vector = vector
        self.radius = radius
        self.d_parent = d_parent
        self.child = child


class _Node:
    """One page: a list of entries plus the back-pointer used by splits.

    The page caches a contiguous ``(len(entries), d)`` block of its entry
    vectors so every visit (insert descent, split matrix, range scan)
    reuses one array instead of re-stacking ``np.array([...])``.  Any
    mutation of the entry list — :meth:`adopt`, :meth:`discard` — drops
    the cache; entry *vectors* are immutable, so nothing else can
    invalidate it.  On a bounded storage backend the tree disables the
    cache (``cache_vectors=False``): entry vectors are rows of the
    memory-mapped core, and pinning a RAM copy per page would defeat the resident-
    memory bound, so each visit re-gathers the block through OS paging.
    """

    __slots__ = (
        "entries",
        "is_leaf",
        "parent_node",
        "parent_entry",
        "_matrix",
        "cache_vectors",
    )

    def __init__(self, is_leaf: bool) -> None:
        self.entries: list[_Entry] = []
        self.is_leaf = is_leaf
        self.parent_node: _Node | None = None
        self.parent_entry: _Entry | None = None
        self._matrix: np.ndarray | None = None
        self.cache_vectors = True

    def adopt(self, entry: _Entry) -> None:
        """Add ``entry`` and, for routing entries, fix the child's back-pointers."""
        self.entries.append(entry)
        self._matrix = None
        if entry.child is not None:
            entry.child.parent_node = self
            entry.child.parent_entry = entry

    def discard(self, entry: _Entry) -> None:
        """Remove ``entry`` (used when a split replaces a child page)."""
        self.entries.remove(entry)
        self._matrix = None

    def matrix(self) -> np.ndarray:
        """The page's entry vectors as one contiguous block (cached
        unless the tree's backend bounds resident memory)."""
        if self._matrix is not None:
            return self._matrix
        block = np.array([entry.vector for entry in self.entries])
        if self.cache_vectors:
            self._matrix = block
        return block


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
    the initial build — the property the static indexes lack.  Deletion
    tombstones through the base class's overlay (exactly how the era's
    implementations handled it, at the catalog layer) until the
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
        if capacity < 4:
            raise IndexingError(f"capacity must be >= 4; got {capacity}")
        if promotion not in PROMOTION_POLICIES:
            raise IndexingError(
                f"promotion must be one of {PROMOTION_POLICIES}; got {promotion!r}"
            )
        self._capacity = capacity
        self._promotion = promotion
        self._rng = np.random.default_rng(seed)
        self._root: _Node | None = None
        self._n_splits = 0

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
        """Page splits performed since construction."""
        return self._n_splits

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        if self._root is None:
            return 0
        levels = 1
        node = self._root
        while not node.is_leaf:
            node = node.entries[0].child  # type: ignore[assignment]
            levels += 1
        return levels

    @property
    def n_pages(self) -> int:
        """Total pages (internal + leaf) currently allocated."""

        def count(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return 1 + sum(count(entry.child) for entry in node.entries)

        return count(self._root)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, ids, vectors: np.ndarray) -> "MTree":
        super().build(ids, vectors)
        if self._core.bounded:
            # The pages hold views of the working block, which a bounded
            # backend has written out: point every entry at its stored
            # row, or the whole block stays pinned in RAM.
            for node in self._iter_nodes():
                rows = self._row_of.rows([entry.item_id for entry in node.entries])
                for entry, row in zip(node.entries, rows.tolist()):
                    entry.vector = self._vectors[row]
        return self

    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        self._root = None
        self._n_splits = 0
        for item_id, vector in zip(ids.tolist(), vectors):
            self._insert(item_id, vector)
        self._build_stats.n_leaves = sum(
            1 for node in self._iter_nodes() if node.is_leaf
        )
        self._build_stats.n_nodes = self.n_pages - self._build_stats.n_leaves
        self._build_stats.depth = self.height - 1
        self._build_stats.extra["n_splits"] = self._n_splits

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
        if not self.is_built or self._vectors is None:
            raise IndexingError("insert() requires a built index; call build() first")
        vector = np.asarray(vector, dtype=np.float64).ravel()
        self.insert_batch([item_id], vector[None, :])

    def _insert_batch(self, ids: list[int], vectors: np.ndarray) -> None:
        """True dynamic insertion: descend to the best leaf, split upward.

        Each object pays the paper's insertion cost (one batched routing
        evaluation per level plus any split matrices), counted in
        :attr:`build_stats` — the structure absorbs the items
        immediately, no pending buffer.
        """
        for item_id, vector in zip(ids, vectors):
            self._insert(item_id, vector)
        self._append_core(ids, vectors)

    def _new_node(self, is_leaf: bool) -> _Node:
        """A page configured for the active storage backend (no RAM
        block cache when the backend bounds resident memory)."""
        node = _Node(is_leaf=is_leaf)
        node.cache_vectors = not self.backend_factory.bounded
        return node

    def _insert(self, item_id: int, vector: np.ndarray) -> None:
        if self._root is None:
            self._root = self._new_node(is_leaf=True)
            self._root.adopt(_Entry(item_id, vector))
            return

        # Descend to the best leaf, remembering the distance to each
        # chosen routing object so d_parent needs no recomputation.
        # Every routing entry's distance is needed (no short-circuit in
        # the choice rule), so each level is one batched evaluation.
        node = self._root
        d_to_parent = 0.0
        while not node.is_leaf:
            distances = self._build_dist_batch(vector, node.matrix()).tolist()
            best_entry: _Entry | None = None
            best_d = np.inf
            best_enlargement = np.inf
            for entry, d in zip(node.entries, distances):
                enlargement = max(0.0, d - entry.radius)
                if (enlargement, d) < (best_enlargement, best_d):
                    best_entry, best_d, best_enlargement = entry, d, enlargement
            assert best_entry is not None and best_entry.child is not None
            best_entry.radius = max(best_entry.radius, best_d)
            node = best_entry.child
            d_to_parent = best_d

        node.adopt(_Entry(item_id, vector, d_parent=d_to_parent))
        if len(node.entries) > self._capacity:
            self._split(node)

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def _split(self, node: _Node) -> None:
        self._n_splits += 1
        entries = node.entries
        n = len(entries)
        # Upper-triangle pairwise matrix: one batched sweep per anchor
        # (same n(n-1)/2 counted evaluations as the scalar double loop).
        entry_matrix = node.matrix()
        pairwise = np.zeros((n, n))
        for i in range(n - 1):
            row = self._build_dist_batch(entry_matrix[i], entry_matrix[i + 1 :])
            pairwise[i, i + 1 :] = row
            pairwise[i + 1 :, i] = row

        i1, i2 = self._promote(entries, pairwise)
        group1, group2 = self._partition(entries, pairwise, i1, i2)

        left = self._new_node(is_leaf=node.is_leaf)
        right = self._new_node(is_leaf=node.is_leaf)
        r_left = self._fill(left, entries, group1, pairwise, i1)
        r_right = self._fill(right, entries, group2, pairwise, i2)

        entry_left = _Entry(
            entries[i1].item_id, entries[i1].vector, radius=r_left, child=left
        )
        entry_right = _Entry(
            entries[i2].item_id, entries[i2].vector, radius=r_right, child=right
        )

        parent = node.parent_node
        if parent is None:
            # The root split: the tree grows one level.
            new_root = self._new_node(is_leaf=False)
            new_root.adopt(entry_left)
            new_root.adopt(entry_right)
            self._root = new_root
            return

        parent.discard(node.parent_entry)
        parent_routing = parent.parent_entry
        for entry in (entry_left, entry_right):
            if parent_routing is not None:
                entry.d_parent = self._build_dist(entry.vector, parent_routing.vector)
                # A promoted object may lie farther from the grandparent
                # routing object than anything seen before.
                parent_routing.radius = max(
                    parent_routing.radius, entry.d_parent + entry.radius
                )
            parent.adopt(entry)
        if len(parent.entries) > self._capacity:
            self._split(parent)

    def _promote(
        self, entries: list[_Entry], pairwise: np.ndarray
    ) -> tuple[int, int]:
        n = len(entries)
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
            group1, group2 = self._partition(entries, pairwise, i1, i2)
            r1 = max(
                (pairwise[i1, j] + entries[j].radius for j in group1), default=0.0
            )
            r2 = max(
                (pairwise[i2, j] + entries[j].radius for j in group2), default=0.0
            )
            score = max(r1, r2)
            if score < best_score:
                best_score = score
                best_pair = (i1, i2)
        return best_pair

    @staticmethod
    def _partition(
        entries: list[_Entry], pairwise: np.ndarray, i1: int, i2: int
    ) -> tuple[list[int], list[int]]:
        """Generalized hyperplane: each entry joins its nearer promoted object.

        The promoted entries anchor their own sides, so neither side is
        empty; ties go to the smaller side to curb degeneracy when many
        entries are equidistant.
        """
        group1: list[int] = [i1]
        group2: list[int] = [i2]
        for j in range(len(entries)):
            if j in (i1, i2):
                continue
            d1 = pairwise[i1, j]
            d2 = pairwise[i2, j]
            if d1 < d2 or (d1 == d2 and len(group1) <= len(group2)):
                group1.append(j)
            else:
                group2.append(j)
        return group1, group2

    @staticmethod
    def _fill(
        node: _Node,
        entries: list[_Entry],
        member_rows: list[int],
        pairwise: np.ndarray,
        promoted_row: int,
    ) -> float:
        """Move entries into ``node``; return the covering radius."""
        radius = 0.0
        for row in member_rows:
            entry = entries[row]
            entry.d_parent = float(pairwise[promoted_row, row])
            node.adopt(entry)
            radius = max(radius, entry.d_parent + entry.radius)
        return radius

    def _iter_nodes(self):
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)

    # ------------------------------------------------------------------
    # Range search
    # ------------------------------------------------------------------
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        result: list[Neighbor] = []
        if self._root is not None:
            self._range_visit(self._root, query, radius, None, result)
        return result

    def _range_visit(
        self,
        node: _Node,
        query: np.ndarray,
        radius: float,
        d_q_parent: float | None,
        result: list[Neighbor],
    ) -> None:
        if node.is_leaf:
            self._search_stats.leaves_visited += 1
        else:
            self._search_stats.nodes_visited += 1
        # Parent filtering prunes without a new distance computation and
        # depends only on the parent distance, so the survivors are known
        # up front and their distances are one batched evaluation over
        # the page's cached vector block (or a row subset of it).
        if d_q_parent is None:
            survivors = list(node.entries)
            block = node.matrix()
        else:
            survivors = []
            rows = []
            for row, entry in enumerate(node.entries):
                if abs(d_q_parent - entry.d_parent) > radius + entry.radius:
                    self._search_stats.nodes_pruned += 1
                else:
                    survivors.append(entry)
                    rows.append(row)
            if not survivors:
                return
            block = node.matrix()[rows]
        if not survivors:
            return
        distances = self._dist_batch(query, block).tolist()
        for entry, d in zip(survivors, distances):
            if entry.child is None:
                if d <= radius:
                    result.append(Neighbor(entry.item_id, d))
            elif d <= radius + entry.radius:
                self._range_visit(entry.child, query, radius, d, result)
            else:
                self._search_stats.nodes_pruned += 1

    # ------------------------------------------------------------------
    # k-NN search
    # ------------------------------------------------------------------
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        if self._root is None:
            return []
        # Best-first search: subtrees keyed by the lower bound of any
        # object they can contain; candidates kept in a k-bounded max-heap.
        # This loop stays on scalar evaluations on purpose: the parent
        # filter re-checks against tau, which shrinks as entries of the
        # same page are offered, so later entries can be skipped entirely.
        # Batching a page up front would evaluate entries the scalar path
        # never pays for, breaking the exact distance accounting.
        best: list[tuple[float, int]] = []  # (-distance, id)
        tiebreak = itertools.count()
        queue: list[tuple[float, int, _Node, float | None]] = [
            (0.0, next(tiebreak), self._root, None)
        ]

        def tau() -> float:
            return -best[0][0] if len(best) == k else np.inf

        def offer(item_id: int, d: float) -> None:
            # (-d, -id): the max-heap then evicts the larger id among
            # equal-distance entries, matching the documented tie-break.
            entry = (-d, -item_id)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)

        while queue:
            bound, _, node, d_q_parent = heapq.heappop(queue)
            if bound > tau():
                self._search_stats.nodes_pruned += 1
                continue
            if node.is_leaf:
                self._search_stats.leaves_visited += 1
            else:
                self._search_stats.nodes_visited += 1
            for entry in node.entries:
                if d_q_parent is not None:
                    lower = abs(d_q_parent - entry.d_parent) - entry.radius
                    if lower > tau():
                        self._search_stats.nodes_pruned += 1
                        continue
                d = self._dist(query, entry.vector)
                if entry.child is None:
                    offer(entry.item_id, d)
                else:
                    child_bound = max(d - entry.radius, 0.0)
                    if child_bound <= tau():
                        heapq.heappush(
                            queue, (child_bound, next(tiebreak), entry.child, d)
                        )
                    else:
                        self._search_stats.nodes_pruned += 1

        return [Neighbor(-neg_id, -neg_d) for neg_d, neg_id in best]
