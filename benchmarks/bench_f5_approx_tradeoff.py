"""F5 — Approximate nearest-neighbour search: accuracy vs. budget.

Two approximation knobs on the VP-tree, each swept against exact ground
truth:

* ``epsilon`` (relative slack): prune unless a subtree could beat the
  current k-th distance by a (1+eps) factor;
* ``max_distance_computations`` (hard budget).

Reported: mean distance computations, recall@10 against the exact
answer set, and the mean distance ratio (approx k-th / true k-th).

Expected shape: a smooth tradeoff - modest epsilon slashes cost with
recall staying high; tiny budgets degrade gracefully rather than
catastrophically (candidates found early are already good).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import uniform_vectors
from repro.eval.harness import ascii_table
from repro.index.linear import LinearScanIndex
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_N = 2048
_DIM = 12   # hard enough that exact search must work for its answers
_K = 10
_N_QUERIES = 20
_EPSILONS = (0.0, 0.25, 0.5, 1.0, 2.0)
_BUDGETS = (64, 128, 256, 512)


def _recall(approx, exact) -> float:
    exact_ids = {n.id for n in exact}
    return len([n for n in approx if n.id in exact_ids]) / len(exact_ids)


def test_f5_tradeoff_table():
    vectors = uniform_vectors(_N, _DIM, seed=9)
    queries = uniform_vectors(_N_QUERIES, _DIM, seed=99)
    ids = list(range(_N))
    metric = EuclideanDistance()
    linear = LinearScanIndex(metric).build(ids, vectors)
    tree = VPTree(metric).build(ids, vectors)

    exact_answers = [linear.knn_search(q, _K) for q in queries]

    rows = []
    recalls = {}
    costs = {}
    for epsilon in _EPSILONS:
        recall_values, cost_values, ratio_values = [], [], []
        for query, exact in zip(queries, exact_answers):
            approx = tree.knn_search_approximate(query, _K, epsilon=epsilon)
            recall_values.append(_recall(approx, exact))
            cost_values.append(tree.last_stats.distance_computations)
            ratio_values.append(approx[-1].distance / exact[-1].distance)
        key = f"eps={epsilon}"
        recalls[key] = float(np.mean(recall_values))
        costs[key] = float(np.mean(cost_values))
        rows.append([key, costs[key], costs[key] / _N, recalls[key], float(np.mean(ratio_values))])

    for budget in _BUDGETS:
        recall_values, cost_values, ratio_values = [], [], []
        for query, exact in zip(queries, exact_answers):
            approx = tree.knn_search_approximate(
                query, _K, max_distance_computations=budget
            )
            recall_values.append(_recall(approx, exact))
            cost_values.append(tree.last_stats.distance_computations)
            ratio_values.append(
                approx[-1].distance / exact[-1].distance if approx else np.inf
            )
        key = f"budget={budget}"
        recalls[key] = float(np.mean(recall_values))
        costs[key] = float(np.mean(cost_values))
        rows.append([key, costs[key], costs[key] / _N, recalls[key], float(np.mean(ratio_values))])

    print_experiment(
        ascii_table(
            ["mode", "mean dists", "fraction of scan", "recall@10", "dist ratio"],
            rows,
            title=f"F5: approximate k-NN tradeoff (N={_N}, dim={_DIM}, uniform)",
        )
    )

    # Shape checks.
    assert recalls["eps=0.0"] == 1.0                      # exact mode is exact
    assert costs["eps=2.0"] < costs["eps=0.0"]            # slack saves work
    assert recalls["eps=0.25"] > 0.8                      # small slack, high recall
    assert recalls["budget=512"] >= recalls["budget=64"] - 1e-9  # more budget, no worse
