"""VP-tree traversal parity, pinned against recorded answers.

``tests/data/golden_vptree_traversal.json`` holds what every VP-tree
entry point returned — ids, distance floats and all four
:class:`~repro.index.stats.SearchStats` counters — on seeded data,
recorded at the commit *before* the traversal loops were tightened and
the indexes started calling ``Metric._kernel`` directly
(``python tests/test_vptree_traversal_parity.py --write`` on that
checkout).  The loops may be rewritten freely; what they evaluate, in
which order, and what they report may not move by a bit.  Two
re-recordings: ``mutated-L2``'s counters, when dead rows stopped
inflating k (a query asks the tree for k, not k plus the dead rows) —
every answer stayed bit for bit, and no count rose; and the k-NN
counters and approximate answers when the traversals became frontier
rounds — every exact answer (k-NN and range, scalar and batch) and
every range counter stayed bit for bit, k-NN counts fell in total, and
the queries whose counts rose are listed in ``CHANGES.md``.

The datasets are chosen for the places a rewritten loop goes wrong:
duplicate-heavy integer rows (ties at every prune test and at the k-th
place), ``k`` larger than the collection, a mutated tree (pending
overlay + dead rows), and the approximate modes at budgets that cut a
leaf bucket short.

The build's partition-based median is pinned here too: it must return
the float ``np.median`` returns, on every input.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.index.stats import SearchStats
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance, ManhattanDistance

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_vptree_traversal.json"

_EPSILONS = (0.0, 0.5)
_BUDGETS = (None, 1, 7, 100)


def _cases():
    """name -> (built tree, query matrix, ks, radii)."""
    rng = np.random.default_rng(20160)
    cases = {}

    cases["uniform-L2"] = (
        VPTree(EuclideanDistance(), leaf_size=6, seed=3).build(
            list(range(400)), rng.random((400, 3))
        ),
        rng.random((4, 3)),
        (1, 10),
        (0.1, 0.25),
    )

    # Three values per coordinate: most rows have exact duplicates and
    # every distance is one of a handful of values.  Two queries sit half
    # a step off the grid, so their pivot distances fall exactly midway
    # between a node's inside and outside intervals — equal gaps, where
    # only the inside-first rule decides the visit order.
    grid = rng.integers(0, 3, size=(240, 4)).astype(np.float64)
    grid_queries = rng.integers(0, 3, size=(4, 4)).astype(np.float64)
    grid_queries[2:, 0] += 0.5
    cases["duplicates-L1"] = (
        VPTree(ManhattanDistance(), leaf_size=3, seed=1).build(
            list(range(1000, 1240)), grid
        ),
        grid_queries,
        (1, 7, 40),
        (0.0, 1.0, 2.0),
    )

    cases["tiny-L2"] = (
        VPTree(EuclideanDistance(), leaf_size=2, seed=0).build(
            [5, 3, 9, 1, 7], rng.random((5, 3))
        ),
        rng.random((3, 3)),
        (2, 5, 9),  # k == n and k > n
        (0.5, 10.0),
    )

    # Below the rebuild threshold: 12 pending rows and 9 dead rows stay,
    # so queries scan the buffer and the tree skips the dead rows.
    mutated = VPTree(EuclideanDistance(), leaf_size=4, seed=2).build(
        list(range(300)), rng.random((300, 6))
    )
    mutated.insert_batch(list(range(500, 512)), rng.random((12, 6)))
    mutated.delete(list(range(40, 49)))
    assert mutated.n_pending == 12 and (len(mutated._ids), mutated.size) == (300, 303)
    cases["mutated-L2"] = (mutated, rng.random((3, 6)), (1, 6), (0.4,))
    return cases


def _answer(tree, result):
    return {
        "ids": [nb.id for nb in result],
        "distances": [nb.distance for nb in result],
        "stats": dataclasses.asdict(tree.last_stats),
    }


def _batch_answers(tree, search, queries, parameter) -> list[dict]:
    """Each row's answer through the batched entry point, its stats from
    a one-row batch; the whole batch must give the same rows and leave
    their summed stats in ``last_stats``."""
    results, rows, total = [], [], SearchStats()
    for query in queries:
        (result,) = search(query[None, :], parameter)
        results.append(result)
        rows.append(_answer(tree, result))
        total.merge(tree.last_stats)
    assert search(queries, parameter) == results
    assert tree.last_stats == total
    return rows


def _capture(tree, queries, ks, radii) -> dict:
    out = {"build": dataclasses.asdict(tree.build_stats)}
    for k in ks:
        out[f"knn/k={k}"] = [_answer(tree, tree.knn_search(q, k)) for q in queries]
        out[f"knn_batch/k={k}"] = _batch_answers(
            tree, tree.knn_search_batch, queries, k
        )
    k = ks[-1]
    for epsilon in _EPSILONS:
        for budget in _BUDGETS:
            out[f"approx/k={k}/eps={epsilon}/budget={budget}"] = [
                _answer(
                    tree,
                    tree.knn_search_approximate(
                        q, k, epsilon=epsilon, max_distance_computations=budget
                    ),
                )
                for q in queries
            ]
    for radius in radii:
        out[f"range/r={radius}"] = [
            _answer(tree, tree.range_search(q, radius)) for q in queries
        ]
        out[f"range_batch/r={radius}"] = _batch_answers(
            tree, tree.range_search_batch, queries, radius
        )
    return out


def _capture_all() -> dict:
    return {name: _capture(*case) for name, case in _cases().items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "name", ["uniform-L2", "duplicates-L1", "tiny-L2", "mutated-L2"]
)
def test_every_entry_point_reproduces_the_recorded_answers(name, golden):
    # Through JSON and back, so floats are compared as the file holds
    # them (repr round-trips doubles exactly).
    captured = json.loads(json.dumps(_capture(*_cases()[name])))
    assert captured.keys() == golden[name].keys()
    for key, recorded in golden[name].items():
        assert captured[key] == recorded, f"{name}: {key} drifted"


def test_goldens_cover_the_hard_cases(golden):
    """The recorded answers really contain k > n, ties at the k-th place,
    a leaf bucket cut short by the budget, and an overlay scan."""
    assert all(len(a["ids"]) == 5 for a in golden["tiny-L2"]["knn/k=9"])
    assert all(
        len(set(a["distances"])) <= 3  # 40 neighbours, three distinct values
        for a in golden["duplicates-L1"]["knn/k=40"]
    )
    for answer in golden["uniform-L2"]["approx/k=10/eps=0.0/budget=7"]:
        stats = answer["stats"]
        # Six pivots, then one row of a bucket the budget could not finish.
        assert (stats["nodes_visited"], stats["leaves_visited"]) == (6, 1)
        assert stats["distance_computations"] == 7
    for answer in golden["mutated-L2"]["approx/k=6/eps=0.0/budget=1"]:
        # The root pivot plus the 12 pending rows the budget never covers.
        assert answer["stats"]["distance_computations"] == 13


# ----------------------------------------------------------------------
# The build's median
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.one_of(
            st.floats(0.0, 1e6, allow_nan=False),
            st.sampled_from([0.0, 0.25, 1.0, 3.0]),  # force ties
        ),
    )
)
@example(np.array([2.0]))
@example(np.array([1.0, 3.0]))
@example(np.array([4.0, 4.0, 4.0]))
@example(np.array([3.0, 1.0, 2.0, 2.0]))
def test_partition_median_is_numpy_median(values):
    # Imported here so ``--write`` also runs on a checkout without it.
    from repro.index.vptree import _median

    before = values.copy()
    result = _median(values)
    assert isinstance(result, float)
    assert result == float(np.median(values))
    assert np.array_equal(values, before)  # the input is not reordered


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN_PATH.write_text(json.dumps(_capture_all(), indent=1) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("usage: python tests/test_vptree_traversal_parity.py --write")
