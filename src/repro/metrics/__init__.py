"""Similarity measures between feature vectors.

Indexing in metric space only needs one thing from a distance function:
the **triangle inequality**.  Every class here declares via
``is_metric`` whether it provides it; the tree indexes refuse
non-metrics, the linear scan accepts anything.

Implemented measures (the paper's section 4 set plus the QBIC standards).
Each is defined by a vectorized ``_kernel`` behind ``distance_batch``
(see :mod:`repro.metrics.base` for the batch contract):

=============================  ========  =============================
Measure                        Metric?   Typical operand
=============================  ========  =============================
L1 / L2 / L-infinity           yes       any vector
WeightedEuclidean              yes       heterogeneous composites
HistogramIntersection          yes*      L1-normalized histograms
ChiSquareDistance              no        histograms
BhattacharyyaDistance          yes**     L1-normalized histograms
QuadraticFormDistance          yes       histograms + bin similarity
MatchDistance (1-D EMD)        yes       ordered histograms (CDF L1)
CircularShiftDistance          no***     orientation histograms
HausdorffDistance              yes       point sets
CosineDistance                 no        any vector (direction only)
CanberraDistance               yes       any vector (relative per-bin)
JensenShannonDistance          yes       histograms (sqrt JS div.)
=============================  ========  =============================

``*`` equal to half the L1 distance on L1-normalized inputs, hence metric.
``**`` the Bhattacharyya *angle* form used here is a metric on the simplex.
``***`` a minimum over shifts; the stacked-shift kernel rolls the whole
vector block per shift and reduces with ``np.minimum``.
"""

from repro.metrics.base import (
    CountingMetric,
    Metric,
    pairwise_distances,
    validate_batch_operands,
)
from repro.metrics.minkowski import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)
from repro.metrics.histogram import (
    BhattacharyyaDistance,
    ChiSquareDistance,
    HistogramIntersection,
)
from repro.metrics.quadratic import QuadraticFormDistance, color_similarity_matrix
from repro.metrics.emd import (
    MatchDistance,
    circular_match_distance,
    circular_match_distance_batch,
    match_distance,
    match_distance_batch,
)
from repro.metrics.shifted import CircularShiftDistance
from repro.metrics.hausdorff import HausdorffDistance, directed_hausdorff
from repro.metrics.divergence import (
    CanberraDistance,
    CosineDistance,
    JensenShannonDistance,
)

__all__ = [
    "Metric",
    "CountingMetric",
    "pairwise_distances",
    "validate_batch_operands",
    "ManhattanDistance",
    "EuclideanDistance",
    "ChebyshevDistance",
    "MinkowskiDistance",
    "WeightedEuclideanDistance",
    "HistogramIntersection",
    "ChiSquareDistance",
    "BhattacharyyaDistance",
    "QuadraticFormDistance",
    "color_similarity_matrix",
    "MatchDistance",
    "match_distance",
    "match_distance_batch",
    "circular_match_distance",
    "circular_match_distance_batch",
    "CircularShiftDistance",
    "HausdorffDistance",
    "directed_hausdorff",
    "CosineDistance",
    "CanberraDistance",
    "JensenShannonDistance",
]
