"""Cosine, Canberra and Jensen-Shannon distances.

These three round out the section-4 similarity-measure inventory:

:class:`CosineDistance`
    ``1 - cos(a, b)`` — compares vector *direction* only, the standard
    choice when overall signature magnitude (image size, exposure) should
    not matter.  Scale invariance is exactly why it is **not** a metric:
    ``x`` and ``2x`` are at distance zero.  Usable with the linear scan
    and filter-refine paths, refused by the triangle-inequality trees.
:class:`CanberraDistance`
    ``sum |a_i - b_i| / (|a_i| + |b_i|)`` — a per-coordinate relative L1,
    very sensitive to differences in small-valued bins (rare colors),
    which plain L1 drowns out.  A true metric.
:class:`JensenShannonDistance`
    The square root of the Jensen-Shannon divergence between two
    L1-normalized histograms — the symmetrized, always-finite relative
    entropy.  Endres & Schindelin proved the square root is a true
    metric, so the trees accept it; it is the information-theoretic
    alternative to the chi-square measure (which is not a metric).

All three are defined by vectorized batch kernels; the inherited scalar
``distance`` runs the same kernel on a one-row matrix, keeping scalar
and batched results bit-identical (the kernels use only elementwise ops
and last-axis sums — no BLAS — per the contract in
:mod:`repro.metrics.base`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric

__all__ = ["CosineDistance", "CanberraDistance", "JensenShannonDistance"]


class CosineDistance(Metric):
    """``1 - cosine_similarity``; direction-only comparison.

    The zero vector has no direction; by convention its distance to
    anything (including itself) is 1, keeping outputs in ``[0, 2]``.
    """

    is_metric = False

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        norm_q = np.sqrt((query * query).sum())
        norms = np.sqrt((vectors * vectors).sum(axis=1))
        dots = (query * vectors).sum(axis=1)
        scales = norm_q * norms
        safe = np.where(scales > 0.0, scales, 1.0)
        cosines = np.clip(dots / safe, -1.0, 1.0)
        return np.where(scales > 0.0, 1.0 - cosines, 1.0)


class CanberraDistance(Metric):
    """Per-coordinate relative L1: ``sum |a-b| / (|a| + |b|)``.

    Coordinates where both operands are zero contribute nothing (the
    standard convention).  Emphasizes proportional change in small bins.
    """

    is_metric = True

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        denominators = np.abs(query) + np.abs(vectors)
        safe = np.where(denominators > 0.0, denominators, 1.0)
        contributions = np.where(
            denominators > 0.0, np.abs(query - vectors) / safe, 0.0
        )
        return contributions.sum(axis=1)


class JensenShannonDistance(Metric):
    """Square root of the Jensen-Shannon divergence (base 2), a metric.

    Operands must be non-negative; they are L1-normalized internally so
    raw histogram counts are fine.  Output lies in ``[0, 1]``: 0 for
    identical distributions, 1 for disjoint supports.
    """

    is_metric = True

    @staticmethod
    def _kernel(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        # A value check, so it lives in the kernel (no index performs it).
        if np.any(query < 0.0) or np.any(vectors < 0.0):
            raise MetricError("JensenShannonDistance: operands must be non-negative")
        mass_q = query.sum()
        masses = vectors.sum(axis=1)
        valid = (masses > 0.0) & (mass_q > 0.0)
        p = query / mass_q if mass_q > 0.0 else query
        safe_masses = np.where(masses > 0.0, masses, 1.0)
        q = vectors / safe_masses[:, None]
        mixture = 0.5 * (p + q)

        def half_divergence(dist: np.ndarray) -> np.ndarray:
            # mixture >= dist/2 > 0 wherever dist > 0 mathematically, but
            # halving the smallest subnormal underflows to zero; such a
            # coordinate's true contribution is itself subnormal, so it
            # is safe (and necessary) to skip it.
            mask = (dist > 0.0) & (mixture > 0.0)
            ratios = np.divide(dist, mixture, out=np.ones_like(mixture), where=mask)
            return np.where(mask, dist * np.log2(ratios), 0.0).sum(axis=1)

        divergences = 0.5 * half_divergence(np.broadcast_to(p, q.shape)) + (
            0.5 * half_divergence(q)
        )
        # Rounding can push the sum a hair outside the theoretical [0, 1].
        distances = np.sqrt(np.clip(divergences, 0.0, 1.0))
        # An empty histogram carries no distribution; it is identical to
        # another empty one and maximally far from any non-empty one.
        return np.where(valid, distances, np.where(masses == mass_q, 0.0, 1.0))
