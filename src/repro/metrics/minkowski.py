"""Minkowski-family distances: L1, L2, L-infinity, general p, weighted L2.

Histogram Euclidean distance — compare identical bins only, all bins
contributing equally — is the paper's primary similarity measure; the
rest of the family costs nothing extra to provide and the evaluation's
metric-comparison experiment (T7) sweeps them all.

Every member is defined by its vectorized batch kernel.  The inherited
scalar ``distance`` evaluates that kernel on a one-row matrix, so scalar
and batched results are bit-identical by construction (see
:mod:`repro.metrics.base` for why the kernels avoid BLAS).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric

__all__ = [
    "ManhattanDistance",
    "EuclideanDistance",
    "ChebyshevDistance",
    "MinkowskiDistance",
    "WeightedEuclideanDistance",
]


class ManhattanDistance(Metric):
    """L1 distance: sum of absolute coordinate differences."""

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return np.abs(query - vectors).sum(axis=1)


class EuclideanDistance(Metric):
    """L2 distance — the paper's histogram comparison measure."""

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        diff = query - vectors
        diff *= diff  # squared in place: one block-sized temporary, not two
        distances = diff.sum(axis=1)
        return np.sqrt(distances, out=distances)


class ChebyshevDistance(Metric):
    """L-infinity distance: the largest single-coordinate difference."""

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return np.abs(query - vectors).max(axis=1)


class MinkowskiDistance(Metric):
    """General L_p distance for finite ``p >= 1`` (p < 1 violates the
    triangle inequality and is rejected; so is a NaN or infinite p —
    the L-infinity distance is :class:`ChebyshevDistance`)."""

    def __init__(self, p: float) -> None:
        p = float(p)
        if p == np.inf:
            raise MetricError("Minkowski p must be finite; for p = inf use ChebyshevDistance")
        if not p >= 1.0:  # NaN fails this too
            raise MetricError(f"Minkowski requires a finite p >= 1 to be a metric; got {p}")
        self._p = p

    @property
    def p(self) -> float:
        """The exponent."""
        return self._p

    @property
    def name(self) -> str:
        return f"L{self._p:g}"

    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return (np.abs(query - vectors) ** self._p).sum(axis=1) ** (1.0 / self._p)


class WeightedEuclideanDistance(Metric):
    """Euclidean distance with fixed non-negative per-dimension weights.

    ``d(a, b) = sqrt(sum_i w_i (a_i - b_i)^2)``.  This is how a composite
    feature vector expresses "color matters three times as much as
    texture" while staying a true metric (it is the Euclidean distance
    after rescaling each axis by ``sqrt(w_i)``).
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.size == 0:
            raise MetricError("weights must be non-empty")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise MetricError("weights must be finite and non-negative")
        self._weights = weights

    @property
    def weights(self) -> np.ndarray:
        """The per-dimension weights (read-only copy)."""
        return self._weights.copy()

    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        diff = query - vectors
        return np.sqrt((self._weights * diff * diff).sum(axis=1))

    def _check_dim(self, dim: int) -> None:
        if dim != self._weights.size:
            raise MetricError(
                f"weightedL2: operands have dim {dim}, weights have {self._weights.size}"
            )
