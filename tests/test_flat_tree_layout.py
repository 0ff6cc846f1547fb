"""The four static trees' flat layout and single traversal, pinned from outside.

``VPTree``, ``GNAT``, ``AntipoleTree`` and ``KDTree`` share one design —
a tree-ordered row block, per-node parallel arrays, one iterative loop
per query type — and one module checks it for all of them:

* **layout** — after ``build`` and after ``rebuild`` the index core
  *is* the tree-ordered block: a permutation of the input held exactly
  once (the tree owns no ``(n, d)`` array besides the core's view and
  no second id list), ``_row_of`` maps an id to its position in tree
  order, every subtree is a
  contiguous row range that its node's own rows and its children tile,
  and the stored payload (intervals, range tables, radii, cached
  centroid distances, boxes) is the recomputed value bit for bit;
* **call pattern** — a wrapper that counts metric *calls* and the rows
  each hands over proves one kernel call per visited node or cluster on
  every entry point of the Antipole tree, and on the VP-tree, the GNAT
  and the k-d tree — which run the base class's one round engine — at
  most one per round: a k-NN descent step or round, or a range level
  (a GNAT range level in one stage per split point), so per-node calls
  cannot creep back unnoticed, and rows handed over ==
  ``distance_computations``;
* **entry-point parity** — on generated data full of ties and
  duplicates, the scalar entry, a one-row batch and a row of an m-row
  batch agree on ids, distance floats and the whole ``SearchStats``, and
  with the linear scan; the VP-tree's exact k-NN also agrees with the
  recursive depth-first reference kept below, and its approximate modes
  keep their guarantees;
* **depth** — a collection of identical rows builds a chain (one node
  per item in the VP-tree, per ``degree`` items in the GNAT); nothing
  may recurse.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.eval.datasets import gaussian_clusters
from repro.index.antipole import AntipoleTree
from repro.index.browse import browse
from repro.index.gnat import GNAT
from repro.index.kdtree import KDTree
from repro.index.linear import LinearScanIndex
from repro.index.pivot import MaxSpreadPivot, MaxVariancePivot, RandomPivot
from repro.index.stats import SearchStats
from repro.index.vptree import VPTree
from repro.metrics.emd import MatchDistance
from repro.metrics.minkowski import ChebyshevDistance, EuclideanDistance, ManhattanDistance

_GNAT_DEGREE = 3

#: name -> factory(metric, leaf_size).  The Antipole tree has no leaf
#: size; its clusters are bounded by diameter.
TREES = {
    "vptree": lambda metric, leaf: VPTree(metric, leaf_size=leaf, seed=2),
    "gnat": lambda metric, leaf: GNAT(
        metric, degree=_GNAT_DEGREE, leaf_size=max(leaf, _GNAT_DEGREE), seed=2
    ),
    "antipole": lambda metric, leaf: AntipoleTree(metric, seed=2),
    "kdtree": lambda metric, leaf: KDTree(metric, leaf_size=leaf),
}
each_tree = pytest.mark.parametrize("kind", list(TREES))


def _is_leaf(tree, node):
    return bool((tree._child[node] < 0).all())


def _shape(tree, node):
    """``(rows held at the node itself, child node numbers in row order)``."""
    size = tree._stop[node] - tree._start[node]
    if isinstance(tree, VPTree):
        kids = tree._child[node].tolist()
        own = size if _is_leaf(tree, node) else 1
    elif isinstance(tree, GNAT):
        table = tree._inner_of[node]
        kids = [] if table < 0 else tree._children[table].tolist()
        own = size if table < 0 else len(kids)
    elif isinstance(tree, AntipoleTree):
        kids = [tree._a_child[node], tree._b_child[node]]
        own = size if tree._is_cluster[node] else 2
    else:
        first = tree._child[node]
        kids = [] if first < 0 else [first, first + 1]
        own = size if first < 0 else 0
    return own, [kid for kid in kids if kid >= 0]


# ----------------------------------------------------------------------
# (a) Layout invariants
# ----------------------------------------------------------------------
def _check_payload(tree, node, kids):
    """The node's stored numbers are the recomputed ones, bit for bit."""
    kernel = tree.metric.distance_batch
    start, stop = tree._start[node], tree._stop[node]
    span = lambda kid: tree._vectors[tree._start[kid] : tree._stop[kid]]  # noqa: E731
    if isinstance(tree, VPTree):
        if _is_leaf(tree, node):
            assert 0 < stop - start <= tree._leaf_size
            return
        assert stop - start > tree._leaf_size and tree._child[node, 0] >= 0
        for child, low, high in zip(tree._child[node], tree._low[node], tree._high[node]):
            if child < 0:
                assert (low, high) == (0.0, 0.0)
                continue
            distances = kernel(tree._vectors[start], span(child))
            assert low == float(distances.min()) and high == float(distances.max())
    elif isinstance(tree, GNAT):
        table = tree._inner_of[node]
        if table < 0:
            assert 0 < stop - start <= tree._leaf_size
            return
        children = tree._children[table]
        splits = tree._vectors[start : start + len(children)]
        for j, child in enumerate(children):
            under = splits[j : j + 1]
            if child >= 0:
                under = np.vstack([under, span(child)])
            for i, split in enumerate(splits):
                distances = kernel(split, under)
                assert tree._low[table, i, j] == distances.min()
                assert tree._high[table, i, j] == distances.max()
    elif isinstance(tree, AntipoleTree):
        if tree._is_cluster[node]:
            cached = kernel(tree._vectors[start], tree._vectors[start + 1 : stop])
            assert np.array_equal(tree._cached[start + 1 : stop], cached)
            assert tree._radius[node] == (cached.max() if cached.size else 0.0)
            return
        for row, child, radius in (
            (start, tree._a_child[node], tree._a_radius[node]),
            (start + 1, tree._b_child[node], tree._b_radius[node]),
        ):
            reach = kernel(tree._vectors[row], span(child)).max() if child >= 0 else 0.0
            assert radius == reach
    else:
        block = tree._vectors[start:stop]
        assert np.array_equal(tree._box_low[node], block.min(axis=0))
        assert np.array_equal(tree._box_high[node], block.max(axis=0))
        if kids:
            dim, value = tree._split_dim[node], tree._split_value[node]
            left, right = span(kids[0])[:, dim], span(kids[1])[:, dim]
            assert left.max() <= value <= right.min() and left.max() < right.min()


def _check_layout(tree, ids, vectors):
    n, dim = vectors.shape
    rows, tree_ids = tree._vectors, tree._ids
    assert rows.shape == vectors.shape and rows.flags["C_CONTIGUOUS"]
    assert sorted(tree_ids.tolist()) == sorted(ids)
    input_row = {item_id: row for row, item_id in enumerate(ids)}
    for row, item_id in enumerate(tree_ids.tolist()):
        assert np.array_equal(rows[row], vectors[input_row[item_id]])
    # Tree order is storage order: the block is the backend core itself
    # and the id -> row map answers with positions in tree order.
    assert np.shares_memory(rows, tree._core.view())
    assert tree._row_of.rows(tree_ids).tolist() == list(range(n))
    assert tree.vectors_of(ids).tobytes() == vectors.tobytes()

    # The rows live once: the tree holds no (n, d) array besides the
    # core's view, no per-node array of rows (leaf block, pivot copy)
    # and no id sequence of its own (``_ids`` is the map's column).
    state = vars(tree)
    assert [
        name for name, value in state.items()
        if isinstance(value, np.ndarray) and value.shape == vectors.shape
    ] == ["_vectors"]
    for value in state.values():
        if isinstance(value, list):
            assert not any(
                isinstance(entry, np.ndarray) and entry.shape[-1:] == (dim,)
                for entry in value
            )

    # Every list is a per-node array, one entry per node.
    n_nodes = len(tree._start)
    for name, value in state.items():
        if isinstance(value, list):
            assert len(value) == n_nodes, name
    assert (tree._start[0], tree._stop[0]) == (0, n)
    held = 0
    for node in range(n_nodes):
        own, kids = _shape(tree, node)
        held += own
        # The node's own rows, then its children's ranges, tile its range.
        at = tree._start[node] + own
        for kid in kids:
            assert kid > node and tree._start[kid] == at
            at = tree._stop[kid]
        assert at == tree._stop[node]
        if kids and not isinstance(tree, KDTree):
            assert kids[0] == node + 1  # depth-first pre-order numbering
        _check_payload(tree, node, kids)
    assert held == n
    stats = tree.build_stats
    assert stats.n_nodes + stats.n_leaves == n_nodes


@each_tree
@pytest.mark.parametrize("leaf_size", [1, 4, 8, 16])
@pytest.mark.parametrize("metric", [EuclideanDistance(), ManhattanDistance()],
                         ids=lambda m: m.name)
def test_layout_after_build_and_rebuild(rng, kind, leaf_size, metric):
    n, dim = 300, 5
    vectors = rng.random((n, dim))
    vectors[40:60] = vectors[40]  # a run of duplicates: degenerate splits
    ids = list(range(100, 100 + n))
    tree = TREES[kind](metric, leaf_size).build(ids, vectors)
    _check_layout(tree, ids, vectors)

    extra = rng.random((10, dim))
    tree.delete(ids[:15])
    tree.insert_batch(list(range(900, 910)), extra)
    tree.rebuild()
    assert tree.n_pending == 0 and len(tree._ids) == tree.size  # no dead row held
    live_ids = ids[15:] + list(range(900, 910))
    _check_layout(tree, live_ids, np.vstack([vectors[15:], extra]))


@each_tree
def test_big_nodes_are_built_piecewise_to_the_same_tree(rng, kind, monkeypatch):
    """A node bigger than the build's temporary budget is partitioned a
    few columns at a time and swept in row blocks.  Shrinking the budget
    until every node takes that path must change nothing: same storage
    order, same nodes, same payload, same counted build distances."""
    import repro.index.base as base

    n, dim = 400, 6
    vectors = rng.random((n, dim))
    vectors[100:130] = vectors[100]
    ids = list(range(n))
    whole = TREES[kind](EuclideanDistance(), 4).build(ids, vectors)
    monkeypatch.setattr(base, "_BUILD_TEMP_BYTES", 8 * 7)  # 7 rows, or one column
    pieces = TREES[kind](EuclideanDistance(), 4).build(ids, vectors)
    _check_layout(pieces, ids, vectors)

    assert pieces.build_stats == whole.build_stats
    for name, value in vars(whole).items():
        other = getattr(pieces, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        elif isinstance(value, list):
            assert len(value) == len(other), name
            for mine, theirs in zip(value, other):
                assert np.array_equal(mine, theirs), name  # scalars, lists or tables
    assert np.array_equal(pieces._ids, whole._ids)


# ----------------------------------------------------------------------
# (b) One kernel call per visited node or cluster on the Antipole tree,
#     per round on the three trees of the round engine
# ----------------------------------------------------------------------
class _CallCounter(EuclideanDistance):
    """Records the row count of every metric call — a batch is one call,
    and so is a scalar ``distance`` (it runs the kernel on one row).  A
    subclass, not a wrapper: the kd-tree only accepts Minkowski metrics."""

    def __init__(self) -> None:
        self.calls: list[int] = []

    def _kernel(self, query, vectors):
        self.calls.append(vectors.shape[0])
        return EuclideanDistance._kernel(query, vectors)


def _expected_calls(kind, mode, stats, calls, tree, n_queries):
    """Bounds ``(fewest, most)`` on the kernel calls of one traversal
    (``stats`` summed over ``n_queries`` queries)."""
    nodes, leaves = stats.nodes_visited, stats.leaves_visited
    assert nodes and leaves
    depth = tree.build_stats.depth
    if kind in ("vptree", "gnat", "kdtree"):
        # The round engine: at least one call per query, at most one per
        # step or round, each evaluating at least one node; a k-d inner
        # node costs no call.  A range level is one call per stage — one
        # stage per split point of a GNAT node, one elsewhere.
        evaluated = leaves if kind == "kdtree" else nodes + leaves
        if mode == "range":
            stages = _GNAT_DEGREE if kind == "gnat" else 1
            return n_queries, min(evaluated, n_queries * stages * (depth + 1))
        return n_queries, evaluated
    if mode == "range":
        # A and B are one call; a cluster is its centroid plus at most
        # one call for the members that survive the cached bounds.
        return nodes + leaves, nodes + 2 * leaves
    # k-NN evaluates cluster members one at a time (tau-dependent).
    members = stats.distance_computations - 2 * nodes - leaves
    return (nodes + leaves + members,) * 2


@each_tree
def test_one_kernel_call_per_visit(rng, kind):
    counter = _CallCounter()
    vectors = rng.random((600, 4))
    tree = TREES[kind](counter, 4).build(list(range(600)), vectors)
    queries = rng.random((5, 4))

    searches = [
        ("knn", 1, lambda: tree.knn_search(queries[0], 7)),
        ("range", 1, lambda: tree.range_search(queries[1], 0.25)),
        ("knn", 5, lambda: tree.knn_search_batch(queries, 7)),
        ("range", 5, lambda: tree.range_search_batch(queries, 0.25)),
    ]
    if kind == "vptree":
        searches += [
            ("knn", 1, lambda: tree.knn_search_approximate(queries[2], 7, epsilon=0.5)),
            ("knn", 1, lambda: tree.knn_search_approximate(
                queries[3], 7, max_distance_computations=45)),
        ]
    if kind == "antipole":
        searches.append(("range", 1, lambda: tree.range_search_ids(queries[4], 0.25)))
    for mode, n_queries, search in searches:
        counter.calls = []
        search()
        fewest, most = _expected_calls(
            kind, mode, tree.last_stats, counter.calls, tree, n_queries
        )
        assert fewest <= len(counter.calls) <= most
        assert 0 not in counter.calls
        assert sum(counter.calls) == tree.last_stats.distance_computations


# ----------------------------------------------------------------------
# (c) Entry-point parity; the VP-tree also against a recursive reference
# ----------------------------------------------------------------------
def _interval_gap(d, low, high):
    return max(low - d, d - high, 0.0)


def _reference_knn(tree, query, k):
    """The recursive, one-distance-at-a-time VP-tree branch-and-bound:
    the exact answer, by the depth-first walk the frontier rounds
    replaced."""
    metric = tree.metric
    heap = []

    def offer(row):
        d = metric.distance(query, tree._vectors[row])
        entry = (-d, -int(tree._ids[row]))
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
        return d

    def visit(node):
        start, stop = tree._start[node], tree._stop[node]
        if _is_leaf(tree, node):
            for row in range(start, stop):
                offer(row)
            return
        d = offer(start)
        children = list(zip(tree._child[node], tree._low[node], tree._high[node]))
        children.sort(key=lambda c: _interval_gap(d, c[1], c[2]))
        for child, low, high in children:
            tau = -heap[0][0] if len(heap) == k else np.inf
            if child >= 0 and _interval_gap(d, low, high) <= tau:
                visit(child)

    visit(0)
    result = sorted((-neg_d, -neg_id) for neg_d, neg_id in heap)
    return [(item_id, d) for d, item_id in result]


def _assert_approximate(result, truth, k, epsilon=None):
    """An approximate k-NN answers with distinct live items and their
    true distances (``truth`` is the exact ranking of every live item);
    with ``epsilon`` and no budget to stop it short, with ``min(k,
    size)`` of them, each within ``(1 + epsilon)`` of the true k-th
    distance."""
    distance_of = {nb.id: nb.distance for nb in truth}
    assert len(result) <= min(k, len(truth))
    assert len({nb.id for nb in result}) == len(result)
    assert all(distance_of[nb.id] == nb.distance for nb in result)
    if epsilon is not None:
        assert len(result) == min(k, len(truth))
        kth = truth[len(result) - 1].distance
        assert all(nb.distance <= (1.0 + epsilon) * kth * (1 + 1e-12) for nb in result)


def _pairs(result):
    return [(nb.id, nb.distance) for nb in result]


#: Coordinates from a coarse grid: ties and exact duplicates everywhere.
_grid = st.integers(0, 3).map(lambda v: v / 4.0)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 3))
    vectors = draw(hnp.arrays(np.float64, (n, dim), elements=_grid))
    queries = draw(hnp.arrays(np.float64, (3, dim), elements=_grid))
    return (
        vectors,
        queries,
        draw(st.sampled_from([1, 2, 8, 16])),  # leaf_size
        draw(st.integers(1, n + 3)),  # k, past n included
        draw(st.sampled_from([0.0, 0.25, 0.5])),  # radius
        draw(st.sampled_from([0.0, 0.5, 2.0])),  # epsilon
        draw(st.sampled_from([None, 1, 3, 10, 25])),  # budget
    )


@each_tree
@settings(max_examples=120, deadline=None)
@given(_cases())
def test_every_entry_point_agrees(kind, case):
    vectors, queries, leaf_size, k, radius, epsilon, budget = case
    ids = list(range(len(vectors)))
    tree = TREES[kind](EuclideanDistance(), leaf_size).build(ids, vectors)
    oracle = LinearScanIndex(EuclideanDistance()).build(ids, vectors)

    knn_rows = tree.knn_search_batch(queries, k)
    knn_total = tree.last_stats
    range_rows = tree.range_search_batch(queries, radius)
    range_total = tree.last_stats
    knn_sum, range_sum = SearchStats(), SearchStats()
    for i, query in enumerate(queries):
        scalar = tree.knn_search(query, k)
        scalar_stats = tree.last_stats
        knn_sum.merge(scalar_stats)
        one_row = tree.knn_search_batch(query[None, :], k)
        assert scalar == one_row[0] == knn_rows[i] == oracle.knn_search(query, k)
        assert scalar_stats == tree.last_stats

        hits = tree.range_search(query, radius)
        hits_stats = tree.last_stats
        range_sum.merge(hits_stats)
        one_row = tree.range_search_batch(query[None, :], radius)
        assert hits == one_row[0] == range_rows[i]
        assert hits == oracle.range_search(query, radius)
        assert hits_stats == tree.last_stats

        if kind == "antipole":
            assert sorted(tree.range_search_ids(query, radius)) == sorted(
                nb.id for nb in hits
            )
            assert (
                tree.last_stats.distance_computations
                <= hits_stats.distance_computations
            )
        if kind != "vptree":
            continue
        assert _pairs(scalar) == _reference_knn(tree, query, k)
        approximate = tree.knn_search_approximate(
            query, k, epsilon=epsilon, max_distance_computations=budget
        )
        truth = oracle.knn_search(query, len(ids))
        if budget is None:
            _assert_approximate(approximate, truth, k, epsilon)
        else:  # a budget may stop the search short of the epsilon guarantee
            _assert_approximate(approximate, truth, k)
            assert tree.last_stats.distance_computations <= budget
    assert (knn_total, range_total) == (knn_sum, range_sum)


#: The VP-tree's knobs that change which nodes a round holds.
_PIVOTS = {
    "max_spread": MaxSpreadPivot, "max_variance": MaxVariancePivot, "random": RandomPivot,
}
_METRICS = {
    "L1": ManhattanDistance(), "L2": EuclideanDistance(),
    "Linf": ChebyshevDistance(), "EMD": MatchDistance(),
}
#: Positive grid coordinates (ties everywhere, no empty histogram), or
#: any value in (0, 1].
_coordinate = st.one_of(
    st.integers(1, 4).map(lambda v: v / 4.0),
    st.floats(0.01, 1.0, allow_nan=False),
)


@st.composite
def _vp_cases(draw):
    n = draw(st.integers(2, 90))
    dim = draw(st.integers(1, 4))
    mutated = draw(st.booleans())
    return dict(
        vectors=draw(hnp.arrays(np.float64, (n, dim), elements=_coordinate)),
        extra=draw(hnp.arrays(np.float64, (12, dim), elements=_coordinate)),
        queries=draw(hnp.arrays(np.float64, (3, dim), elements=_coordinate)),
        pivot=draw(st.sampled_from(sorted(_PIVOTS))),
        leaf_size=draw(st.sampled_from([1, 2, 4, 16])),
        metric=draw(st.sampled_from(sorted(_METRICS))),
        # Mutated: rows pending, core and pending rows dead, no rebuild.
        dead=draw(st.sets(st.integers(0, n + 11), max_size=n // 2)) if mutated else None,
        k=draw(st.integers(1, n + 2)),
        epsilon=draw(st.sampled_from([0.1, 0.5, 2.0])),
        budget=draw(st.sampled_from([1, 5, 17, 60])),
    )


@settings(max_examples=150, deadline=None)
@given(_vp_cases())
def test_vptree_rounds_keep_every_guarantee(case):
    """Over pivot strategy x leaf size x metric x {static, mutated}: exact
    k-NN and range answers are the linear scan's bit for bit (ties at the
    k-th distance and hits exactly at the radius included), epsilon
    answers are within (1 + epsilon) of the true k-th distance, and a
    budget caps the tree's distances."""
    vectors, metric, k = case["vectors"], _METRICS[case["metric"]], case["k"]
    tree = VPTree(
        metric, leaf_size=case["leaf_size"], pivot_strategy=_PIVOTS[case["pivot"]](), seed=4
    ).build(list(range(len(vectors))), vectors)
    rows = np.vstack([vectors, case["extra"]])
    live = np.ones(len(rows), dtype=bool)
    if case["dead"] is None:
        live[len(vectors):] = False
    else:
        tree.rebuild_min = 10**9  # keep the pending and dead rows in place
        tree.insert_batch(range(len(vectors), len(rows)), case["extra"])
        live[sorted(case["dead"])] = False
        tree.delete(sorted(case["dead"]))
    oracle = LinearScanIndex(metric).build(np.flatnonzero(live), rows[live])

    for query in case["queries"]:
        truth = oracle.knn_search(query, oracle.size)
        assert tree.knn_search(query, k) == oracle.knn_search(query, k)
        radius = truth[min(k, len(truth)) - 1].distance  # a hit exactly at the radius
        assert tree.range_search(query, radius) == oracle.range_search(query, radius)

        epsilon = case["epsilon"]
        _assert_approximate(
            tree.knn_search_approximate(query, k, epsilon=epsilon), truth, k, epsilon
        )
        budget = case["budget"]
        answer = tree.knn_search_approximate(query, k, max_distance_computations=budget)
        _assert_approximate(answer, truth, k)
        assert tree.last_stats.distance_computations <= budget + tree.n_pending


def test_a_bound_off_by_an_ulp_prunes_nothing():
    """Every prune test compares a difference of rounded distances.  Here
    the pivot 0.77436238 is 0.71436238000000001 from the query and
    0.52436238 from the two rows at 0.25, so ``d - radius`` rounds to
    0.5243623800000001 > 0.52436238 at a radius equal to those rows'
    distance; the rows must still be found, and so must a k-th place
    tie that the same rounding would hide."""
    vectors = np.array([[0.25], [1.0], [1.0], [1.0], [0.77436238], [0.25], [1.0], [1.0]])
    ids = list(range(len(vectors)))
    metric = ManhattanDistance()
    tree = VPTree(metric, leaf_size=1, seed=4).build(ids, vectors)
    oracle = LinearScanIndex(metric).build(ids, vectors)
    query = np.array([0.06])
    radius = oracle.knn_search(query, 1)[0].distance
    assert [nb.id for nb in tree.range_search(query, radius)] == [0, 5]
    for k in range(1, len(ids) + 1):
        assert tree.knn_search(query, k) == oracle.knn_search(query, k)

    vectors = np.array(
        [[0.5]] * 7 + [[0.75]] + [[0.25]] * 6 + [[1.0], [0.01730015]] + [[0.25]] * 3 + [[0.5]]
    )
    ids = list(range(len(vectors)))
    tree = VPTree(metric, leaf_size=1, seed=4).build(ids, vectors)
    oracle = LinearScanIndex(metric).build(ids, vectors)
    assert tree.knn_search(np.array([0.5]), 10) == oracle.knn_search(np.array([0.5]), 10)


#: Per-query call ceilings at n=20k: ``(k-NN, range)``, the range one a
#: function of the built tree.
_CALL_CEILINGS = {
    "vptree": (100, lambda tree: tree.build_stats.depth + 1),
    "gnat": (30, lambda tree: tree.degree * (tree.build_stats.depth + 1)),
    "kdtree": (30, lambda tree: tree.build_stats.depth + 1),
}


@pytest.mark.parametrize("kind", list(_CALL_CEILINGS))
def test_trees_answer_in_tens_of_calls_not_hundreds(kind):
    """On the served data (n=20k, d=16, k=10) the node-at-a-time walks
    made ~310 (VP-tree leaf 16), 331 (GNAT) and 228 (k-d tree) kernel
    calls per k-NN and ~300, 755 and 90 per range query; the round
    engine stays under a per-query ceiling for both."""
    n, k = 20_000, 10
    rows, _ = gaussian_clusters(n + 50, 16, n_clusters=16, cluster_std=0.05, seed=1)
    counter = _CallCounter()
    if kind == "vptree":
        tree = VPTree(counter, leaf_size=16)
    else:
        tree = GNAT(counter) if kind == "gnat" else KDTree(counter)
    tree.build(np.arange(n), rows[:n])
    queries = rows[n:]
    radius = float(np.median([r[-1].distance for r in tree.knn_search_batch(queries, k)]))
    knn_ceiling, range_ceiling = _CALL_CEILINGS[kind]
    for query in queries:
        counter.calls = []
        tree.knn_search(query, k)
        assert len(counter.calls) <= knn_ceiling
        counter.calls = []
        tree.range_search(query, radius)
        assert len(counter.calls) <= range_ceiling(tree)


# ----------------------------------------------------------------------
# Depth: identical rows build a chain; nothing may recurse
# ----------------------------------------------------------------------
#: Fewest levels the 9 000 identical rows must produce (none in the two
#: trees that put them all in one bucket).
_N_SAME = 9000
_CHAIN_DEPTH = {"vptree": _N_SAME - 8, "gnat": _N_SAME // 8 - 1}


@each_tree
def test_duplicate_heavy_collection_needs_no_recursion(kind):
    vectors = np.zeros((_N_SAME + 3, 4))
    vectors[-3:] = [[0.5, 0, 0, 0], [0, 0.25, 0, 0], [1, 1, 1, 1]]
    ids = list(range(len(vectors)))
    if kind == "gnat":
        tree = GNAT(EuclideanDistance())  # the default degree: depth ~n/8
    else:
        tree = TREES[kind](EuclideanDistance(), 8)
    tree.build(ids, vectors)
    oracle = LinearScanIndex(EuclideanDistance()).build(ids, vectors)
    assert tree.build_stats.depth >= _CHAIN_DEPTH.get(kind, 0)

    queries = np.array([[0.0, 0, 0, 0], [0.4, 0.1, 0, 0]])
    for query in queries:
        assert tree.knn_search(query, 12) == oracle.knn_search(query, 12)
        assert tree.range_search(query, 0.3) == oracle.range_search(query, 0.3)
    assert tree.knn_search_batch(queries, 12) == oracle.knn_search_batch(queries, 12)
    assert tree.range_search_batch(queries, 0.3) == oracle.range_search_batch(
        queries, 0.3
    )
    assert list(browse(tree, queries[1])) == oracle.knn_search(queries[1], len(ids))
