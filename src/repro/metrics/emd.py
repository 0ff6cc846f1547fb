"""Match distance: the 1-D earth mover's distance between histograms.

For histograms over an *ordered* domain (intensity levels, distance-
transform cells) the right notion of difference is how much mass must be
moved how far, not how bins differ point-wise.  In one dimension the
earth mover's distance has a closed form: the L1 distance between the
cumulative distributions,

    EMD(h, g) = sum_i | H_i - G_i |,   H, G = prefix sums of h, g.

This is Werman's *match distance*; it is a true metric on equal-mass
histograms.  A circular variant handles periodic domains (hue,
orientation) by optimally choosing the cut point (Pele & Werman's
closed form: subtract the median of the CDF differences).

Both variants carry vectorized batch kernels: the CDF differences of a
whole candidate matrix are one ``np.cumsum(..., axis=1)`` over the
broadcast ``h - G`` block, the circular cut point is a row-wise
``np.median``, and the final L1 folds are row-wise absolute sums.  Every
step is elementwise arithmetic or a last-axis reduction, so each row
reproduces the scalar result bit for bit (see the arithmetic rules in
``repro.metrics.base``); row-wise ``np.median`` partitions each row
exactly as the 1-D call does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import (
    Metric,
    validate_batch_operands,
    validate_same_shape,
)

__all__ = [
    "MatchDistance",
    "circular_match_distance",
    "circular_match_distance_batch",
    "match_distance",
    "match_distance_batch",
]


def match_distance(h: np.ndarray, g: np.ndarray) -> float:
    """1-D EMD between two same-mass non-negative histograms."""
    h, g = validate_same_shape(h, g, "match")
    if np.any(h < 0) or np.any(g < 0):
        raise MetricError("match distance requires non-negative histograms")
    mass_h, mass_g = float(h.sum()), float(g.sum())
    if not np.isclose(mass_h, mass_g, rtol=1e-6, atol=1e-9):
        raise MetricError(
            f"match distance requires equal masses; got {mass_h:.6g} vs {mass_g:.6g}"
        )
    return float(np.abs(np.cumsum(h - g)).sum())


def circular_match_distance(h: np.ndarray, g: np.ndarray) -> float:
    """1-D EMD on a circular domain (optimal cut via the median shift)."""
    h, g = validate_same_shape(h, g, "circular-match")
    if np.any(h < 0) or np.any(g < 0):
        raise MetricError("match distance requires non-negative histograms")
    if not np.isclose(float(h.sum()), float(g.sum()), rtol=1e-6, atol=1e-9):
        raise MetricError("circular match distance requires equal masses")
    cdf_diff = np.cumsum(h - g)
    return float(np.abs(cdf_diff - np.median(cdf_diff)).sum())


def _validate_batch_masses(
    h: np.ndarray, candidates: np.ndarray, name: str, message: str
) -> None:
    """The scalar functions' non-negativity and equal-mass checks, batched.

    Raises for the first offending row, with the scalar error text.
    """
    if np.any(h < 0) or np.any(candidates < 0):
        raise MetricError("match distance requires non-negative histograms")
    mass_h = float(h.sum())
    masses = candidates.sum(axis=1)
    mismatched = ~np.isclose(mass_h, masses, rtol=1e-6, atol=1e-9)
    if np.any(mismatched):
        mass_g = float(masses[int(np.argmax(mismatched))])
        if name == "match":
            raise MetricError(
                f"match distance requires equal masses; got {mass_h:.6g} vs {mass_g:.6g}"
            )
        raise MetricError(message)


def match_distance_batch(h: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Row-wise :func:`match_distance` between ``h`` and every candidate."""
    h, candidates = validate_batch_operands(h, candidates, "match")
    if candidates.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    _validate_batch_masses(h, candidates, "match", "")
    cdf_diff = np.cumsum(h[None, :] - candidates, axis=1)
    return np.abs(cdf_diff).sum(axis=1)


def circular_match_distance_batch(h: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Row-wise :func:`circular_match_distance` (median-shift cut points)."""
    h, candidates = validate_batch_operands(h, candidates, "circular-match")
    if candidates.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    _validate_batch_masses(
        h,
        candidates,
        "circular-match",
        "circular match distance requires equal masses",
    )
    cdf_diff = np.cumsum(h[None, :] - candidates, axis=1)
    medians = np.median(cdf_diff, axis=1)
    return np.abs(cdf_diff - medians[:, None]).sum(axis=1)


class MatchDistance(Metric):
    """Metric wrapper around :func:`match_distance`.

    Parameters
    ----------
    circular:
        Treat the histogram domain as periodic (hue, edge orientation).
    normalize:
        L1-normalize operands first, so histograms of different total mass
        (different image sizes) are comparable.  Default True.
    """

    def __init__(self, *, circular: bool = False, normalize: bool = True) -> None:
        self._circular = circular
        self._normalize = normalize

    @property
    def name(self) -> str:
        return "circular_match" if self._circular else "match"

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        a, b = validate_same_shape(a, b, self.name)
        if self._normalize:
            mass_a, mass_b = float(a.sum()), float(b.sum())
            if mass_a <= 0.0 or mass_b <= 0.0:
                return 0.0 if mass_a == mass_b else 1.0
            a = a / mass_a
            b = b / mass_b
        if self._circular:
            return circular_match_distance(a, b)
        return match_distance(a, b)

    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Vectorized kernel: one stacked cumsum per candidate matrix.

        Normalization divides each row by its own mass (the same
        elementwise floats the scalar path produces), rows with
        non-positive mass take the scalar path's degenerate 0/1 answers,
        and the surviving block goes through the stacked kernel — row
        ``i`` equals ``distance(query, vectors[i])`` bit for bit.
        """
        n = vectors.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.float64)
        kernel = (
            circular_match_distance_batch if self._circular else match_distance_batch
        )
        if not self._normalize:
            return kernel(query, vectors)
        mass_q = float(query.sum())
        masses = vectors.sum(axis=1)
        degenerate = (masses <= 0.0) | (mass_q <= 0.0)
        if not np.any(degenerate):
            return kernel(query / mass_q, vectors / masses[:, None])
        out = np.empty(n, dtype=np.float64)
        out[degenerate] = np.where(masses[degenerate] == mass_q, 0.0, 1.0)
        live = ~degenerate
        if np.any(live):
            out[live] = kernel(
                query / mass_q, vectors[live] / masses[live][:, None]
            )
        return out
