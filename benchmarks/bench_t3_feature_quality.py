"""T3 — Retrieval quality per feature type.

Leave-one-out retrieval over the 8-class labelled corpus: every image
queries the rest of the database, and precision@5 / mean average
precision are scored against the class ground truth, per extractor.

Expected shape: color features (HSV, RGB, moments, correlogram) dominate
on the color-separable classes; GLCM/wavelet carry the achromatic
texture classes; the orientation-sensitive features separate the stripe
orientations; no single feature wins everywhere (that is T5's fusion
argument).  Everything must beat the 1/8 chance level.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.groundtruth import RelevanceJudgments
from repro.eval.harness import ascii_table
from repro.eval.metrics import mean_average_precision, mean_precision_at_k
from repro.index.linear import LinearScanIndex
from repro.metrics.minkowski import EuclideanDistance


def _leave_one_out_rankings(ids, matrix, k=10):
    metric = EuclideanDistance()
    index = LinearScanIndex(metric).build(ids, matrix)
    rankings = {}
    for row, query_id in enumerate(ids):
        neighbors = index.knn_search(matrix[row], k + 1)
        rankings[query_id] = [n.id for n in neighbors if n.id != query_id][:k]
    return rankings


def test_t3_feature_quality_table(corpus_features):
    ids, labels, matrices = corpus_features
    judgments = RelevanceJudgments.from_labels(ids, labels)

    rows = []
    precision_by_feature = {}
    for feature, matrix in matrices.items():
        rankings = _leave_one_out_rankings(ids, matrix)
        p5 = mean_precision_at_k(rankings, judgments, 5)
        ap = mean_average_precision(rankings, judgments)
        precision_by_feature[feature] = p5
        rows.append([feature, p5, ap])
    rows.sort(key=lambda r: -r[1])
    print_experiment(
        ascii_table(
            ["feature", "precision@5", "MAP (top-10)"],
            rows,
            title="T3: leave-one-out retrieval quality per feature "
            "(8 classes x 8 images; chance = 0.125)",
        )
    )
    # Shape checks.
    chance = 1.0 / 8.0
    assert precision_by_feature["hsv_hist_18x3x3"] > 0.5
    for feature, p5 in precision_by_feature.items():
        assert p5 > chance, feature
