"""Ties at the radius and at the k-th distance survive every prune test.

A triangle-inequality bound is a difference of rounded distances, so
an exact bound can come out an ulp above the computed distance of an
item it bounds.  Without an allowance for that, a range query whose
radius equals an item's distance, or a k-NN tie at the k-th distance,
loses the item.  The probe is 1-D L1 data full of such ties: 20 rows,
one of them swept over 401 values, three queries each, k=10, and the
radius set to the linear scan's 10th distance.  Before the GNAT and
LAESA prune tests allowed for rounding, the GNAT differed from the scan
on 93 k-NN and 43 range answers of 1 203, and LAESA on 93 range answers.
"""

import numpy as np
import pytest

from repro.index.gnat import GNAT
from repro.index.laesa import LAESAIndex
from repro.index.linear import LinearScanIndex
from repro.metrics.minkowski import ManhattanDistance

_INDEXES = {
    "gnat": lambda metric: GNAT(metric, degree=2, leaf_size=2, seed=4),
    "laesa": lambda metric: LAESAIndex(metric, n_pivots=3),
}


@pytest.mark.parametrize("kind", list(_INDEXES))
def test_ties_answer_as_the_linear_scan(kind):
    metric = ManhattanDistance()
    ids = list(range(20))
    answers = differences = 0
    for x in np.linspace(0.0173, 0.0174, 401):
        rows = [0.5] * 7 + [0.75] + [0.25] * 6 + [1.0, x] + [0.25] * 3 + [0.5]
        rows = np.array(rows)[:, None]
        scan = LinearScanIndex(metric).build(ids, rows)
        index = _INDEXES[kind](metric).build(ids, rows)
        for query in (np.array([0.5]), np.array([0.06]), np.array([x + 0.25])):
            nearest = scan.knn_search(query, 10)
            radius = nearest[-1].distance
            answers += 1
            differences += index.knn_search(query, 10) != nearest
            differences += index.range_search(query, radius) != scan.range_search(
                query, radius
            )
    assert (answers, differences) == (1203, 0)
