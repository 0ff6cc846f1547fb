"""T5 — Multi-feature fusion vs. single features.

Leave-one-out retrieval on the labelled corpus comparing:

* each single feature (color, texture, edges) alone,
* the weighted score combination at several weightings,
* Borda and reciprocal-rank fusion.

Expected shape: the best single feature is color (the corpus has color
classes), but it stumbles on the achromatic texture classes; fusion
covers both families and beats every single feature on mean
precision@5.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.db.query import borda_fuse, combine_feature_distances, reciprocal_rank_fuse
from repro.eval.groundtruth import RelevanceJudgments
from repro.eval.harness import ascii_table
from repro.eval.metrics import mean_precision_at_k
from repro.metrics.minkowski import EuclideanDistance

_COLOR = "hsv_hist_18x3x3"
_TEXTURE = "glcm_16l_4o_concat"
_EDGES = "edge_orient_18"
_K = 5
_POOL = 20


def _distance_table(matrix, metric):
    """query row -> {candidate row: distance}, excluding self."""
    n = matrix.shape[0]
    table = {}
    for i in range(n):
        distances = {}
        for j in range(n):
            if i != j:
                distances[j] = metric.distance(matrix[i], matrix[j])
        table[i] = distances
    return table


def test_t5_fusion_table(corpus_features):
    ids, labels, matrices = corpus_features
    judgments = RelevanceJudgments.from_labels(ids, labels)
    metric = EuclideanDistance()

    features = {name: matrices[name] for name in (_COLOR, _TEXTURE, _EDGES)}
    distance_tables = {
        name: _distance_table(matrix, metric) for name, matrix in features.items()
    }

    def single_rankings(feature):
        rankings = {}
        for query in ids:
            ordered = sorted(distance_tables[feature][query].items(), key=lambda kv: kv[1])
            rankings[query] = [candidate for candidate, _ in ordered[:_POOL]]
        return rankings

    def weighted_rankings(weights):
        rankings = {}
        for query in ids:
            per_feature = {
                name: distance_tables[name][query] for name in weights
            }
            combined = combine_feature_distances(per_feature, weights)
            ordered = sorted(combined.items(), key=lambda kv: kv[1][0])
            rankings[query] = [candidate for candidate, _ in ordered[:_POOL]]
        return rankings

    def fused_rankings(fuse):
        per_feature_rankings = {name: single_rankings(name) for name in features}
        rankings = {}
        for query in ids:
            rankings[query] = fuse(
                [per_feature_rankings[name][query] for name in features], _POOL
            )
        return rankings

    strategies = {
        "color only": single_rankings(_COLOR),
        "texture only": single_rankings(_TEXTURE),
        "edges only": single_rankings(_EDGES),
        "weighted 1:1:1": weighted_rankings({_COLOR: 1.0, _TEXTURE: 1.0, _EDGES: 1.0}),
        "weighted 2:1:1": weighted_rankings({_COLOR: 2.0, _TEXTURE: 1.0, _EDGES: 1.0}),
        "weighted 4:1:1": weighted_rankings({_COLOR: 4.0, _TEXTURE: 1.0, _EDGES: 1.0}),
        "borda fusion": fused_rankings(borda_fuse),
        "rrf fusion": fused_rankings(reciprocal_rank_fuse),
    }

    rows = []
    scores = {}
    for name, rankings in strategies.items():
        p5 = mean_precision_at_k(rankings, judgments, _K)
        scores[name] = p5
        rows.append([name, p5])
    print_experiment(
        ascii_table(
            ["strategy", f"precision@{_K}"],
            rows,
            title="T5: multi-feature fusion vs single features (leave-one-out)",
        )
    )

    best_single = max(scores["color only"], scores["texture only"], scores["edges only"])
    best_fused = max(
        scores["weighted 1:1:1"],
        scores["weighted 2:1:1"],
        scores["weighted 4:1:1"],
        scores["borda fusion"],
        scores["rrf fusion"],
    )
    assert best_fused >= best_single  # fusion covers both class families
