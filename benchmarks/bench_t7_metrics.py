"""T7 — Similarity-measure comparison: retrieval quality and indexability.

Every similarity measure from the paper's section 4 (and the QBIC
standards) is evaluated on the same HSV-histogram features:

* leave-one-out precision@5 against class ground truth,
* whether the measure admits tree indexing (metric or not).

Expected shape: on L1-normalized histograms the ranking quality of L1,
intersection and match distance cluster together (intersection *is*
half-L1 there); chi-square and Bhattacharyya reweight rare bins and may
edge ahead; the quadratic form tolerates cross-bin color shifts; L2 and
L-infinity trail slightly.
"""

from __future__ import annotations

from benchmarks.conftest import print_experiment
from repro.eval.groundtruth import RelevanceJudgments
from repro.eval.harness import ascii_table
from repro.eval.metrics import mean_precision_at_k
from repro.index.linear import LinearScanIndex
from repro.metrics.emd import MatchDistance
from repro.metrics.histogram import (
    BhattacharyyaDistance,
    ChiSquareDistance,
    HistogramIntersection,
)
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
)
from repro.metrics.quadratic import QuadraticFormDistance, color_similarity_matrix

_K = 5


def _metrics_under_test(dim: int):
    measures = {
        "L1": ManhattanDistance(),
        "L2 (paper eq.)": EuclideanDistance(),
        "L-infinity": ChebyshevDistance(),
        "intersection": HistogramIntersection(),
        "chi-square": ChiSquareDistance(),
        "bhattacharyya": BhattacharyyaDistance(),
        "match (1-D EMD)": MatchDistance(),
    }
    return measures


def test_t7_metric_comparison(corpus_features):
    ids, labels, matrices = corpus_features
    judgments = RelevanceJudgments.from_labels(ids, labels)

    # HSV histograms for most measures; RGB histograms for the quadratic
    # form (its similarity matrix is defined over RGB bin centers).
    hsv = matrices["hsv_hist_18x3x3"]
    rgb = matrices["rgb_hist_4"]
    quadratic = QuadraticFormDistance(color_similarity_matrix(4))

    rows = []
    quality = {}
    for name, metric in list(_metrics_under_test(hsv.shape[1]).items()) + [
        ("quadratic (QBIC)", quadratic)
    ]:
        matrix = rgb if name.startswith("quadratic") else hsv
        index = LinearScanIndex(metric).build(ids, matrix)
        rankings = {}
        for row, query_id in enumerate(ids):
            neighbors = index.knn_search(matrix[row], _K + 1)
            rankings[query_id] = [n.id for n in neighbors if n.id != query_id][:_K]
        p5 = mean_precision_at_k(rankings, judgments, _K)
        quality[name] = p5
        rows.append(
            [
                name,
                p5,
                "yes" if metric.is_metric else "no (scan only)",
            ]
        )
    rows.sort(key=lambda r: -r[1])
    print_experiment(
        ascii_table(
            ["measure", f"precision@{_K}", "tree-indexable"],
            rows,
            title="T7: similarity measures on color histograms (leave-one-out)",
        )
    )

    # Shape checks.
    chance = 1.0 / 8.0
    for name, p5 in quality.items():
        assert p5 > chance, name
    # Intersection == half L1 on normalized histograms: identical rankings.
    assert quality["intersection"] == quality["L1"]
