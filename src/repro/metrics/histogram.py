"""Histogram-specific dissimilarity measures.

These exploit the fact that histograms are probability mass functions:

* **Histogram intersection** (Swain & Ballard) — the paper's equation (5):
  ``sum_i min(h_i, g_i)`` normalized by the smaller histogram's mass,
  turned into a dissimilarity as ``1 - intersection``.  Colors absent
  from the query contribute nothing, which suppresses background.
* **Chi-square** — bin differences discounted by bin mass; a statistics
  staple but *not* a metric (triangle inequality fails), so only scan
  indexes accept it.
* **Bhattacharyya** — the angle form ``arccos(sum_i sqrt(h_i g_i))``,
  which is the geodesic distance on the probability simplex and hence a
  proper metric.

All three are defined by vectorized batch kernels; the inherited scalar
``distance`` runs the same kernel on a one-row matrix so scalar and
batched results are bit-identical (degenerate empty-histogram cases
included, handled with ``np.where`` branches that mirror the scalar
definitions).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric

__all__ = ["HistogramIntersection", "ChiSquareDistance", "BhattacharyyaDistance"]


def _check_nonnegative(query: np.ndarray, vectors: np.ndarray, name: str) -> None:
    # A check on values, not on operand shape: it defines the measure's
    # domain and no index performs it, so it stays inside the kernels.
    if np.any(query < -1e-12) or np.any(vectors < -1e-12):
        raise MetricError(f"{name}: histograms must be non-negative")


class HistogramIntersection(Metric):
    """``1 - sum(min(h, g)) / min(|h|, |g|)`` over non-negative histograms.

    On L1-normalized inputs this equals half the L1 distance, which is why
    ``is_metric`` is True.  The normalization by the smaller mass follows
    the paper: the sum "is normalized by the histogram with fewest
    samples".  Two empty histograms are defined to be identical.
    """

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        _check_nonnegative(query, vectors, "intersection")
        mass_q = query.sum()
        masses = vectors.sum(axis=1)
        smaller = np.minimum(masses, mass_q)
        larger = np.maximum(masses, mass_q)
        overlap = np.minimum(vectors, query).sum(axis=1)
        # An empty histogram is identical to another empty one (distance
        # 0) and maximally far (1) from any non-empty one.
        safe = np.where(smaller > 0.0, smaller, 1.0)
        return np.where(
            smaller > 0.0,
            1.0 - overlap / safe,
            np.where(larger <= 0.0, 0.0, 1.0),
        )


class ChiSquareDistance(Metric):
    """Symmetric chi-square: ``0.5 * sum (h-g)^2 / (h+g)`` (empty bins skip).

    Emphasizes differences in low-mass bins.  Not a true metric.
    """

    is_metric = False

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        _check_nonnegative(query, vectors, "chi2")
        total = query + vectors
        diff = query - vectors
        safe = np.where(total > 0.0, total, 1.0)
        contributions = np.where(total > 0.0, diff * diff / safe, 0.0)
        return 0.5 * contributions.sum(axis=1)


class BhattacharyyaDistance(Metric):
    """Bhattacharyya angle: ``arccos( sum sqrt(h_i * g_i) )``.

    Operands are L1-normalized internally so the coefficient lies in
    [0, 1]; the arccos form (Fisher-Rao geodesic up to scale) satisfies
    the triangle inequality, unlike the common ``-log`` form.
    """

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        _check_nonnegative(query, vectors, "bhattacharyya")
        mass_q = query.sum()
        masses = vectors.sum(axis=1)
        valid = (masses > 0.0) & (mass_q > 0.0)
        normalized_q = np.clip(query / mass_q, 0, None) if mass_q > 0.0 else query
        safe_masses = np.where(masses > 0.0, masses, 1.0)
        normalized = np.clip(vectors / safe_masses[:, None], 0, None)
        coefficients = np.sqrt(normalized_q * normalized).sum(axis=1)
        angles = np.arccos(np.clip(coefficients, -1.0, 1.0))
        # Empty vs. empty is identical; empty vs. non-empty is maximal.
        return np.where(valid, angles, np.where(masses == mass_q, 0.0, np.pi / 2.0))
