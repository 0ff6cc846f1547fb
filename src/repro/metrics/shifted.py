"""Circular-shift matching for orientation histograms.

Edge-orientation histograms rotate with the image: a 30-degree rotation
circularly shifts the histogram by 30 degrees' worth of bins.  The paper's
remedy is to "iteratively shift the histogram to find the best match" —
exactly what :class:`CircularShiftDistance` does: it evaluates a base
distance at every cyclic shift (optionally limited to ``max_shift`` bins)
and returns the minimum.

Taking a minimum over shifts breaks the triangle inequality in general,
so this measure is flagged non-metric and belongs in linear scans or in
the re-ranking stage after an index narrowed the candidates.

``_kernel`` is a **stacked-shift kernel**: for each candidate
shift the whole ``(n, d)`` vector block is rolled along its bin axis in
one ``np.roll`` call and handed to the base metric's batch kernel, and
the per-row minimum accumulates through ``np.minimum``.  Row ``i`` of
``np.roll(V, s, axis=1)`` equals ``np.roll(V[i], s)`` and the base
kernel is bit-identical to its scalar path by the batch contract, so
the minimum over the same shift set reproduces the scalar result bit
for bit — the scalar loop's early exit at an exact zero changes which
shifts are *evaluated*, never the minimum.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric, validate_same_shape
from repro.metrics.minkowski import EuclideanDistance

__all__ = ["CircularShiftDistance"]


class CircularShiftDistance(Metric):
    """Minimum of a base distance over cyclic shifts of the second operand.

    Parameters
    ----------
    base:
        The distance evaluated at each shift (default Euclidean).
    max_shift:
        Largest shift magnitude to try, in bins; ``None`` tries all
        ``dim`` shifts.  Limiting the range models "small rotations only"
        and cuts cost proportionally.
    """

    is_metric = False

    def __init__(self, base: Metric | None = None, *, max_shift: int | None = None) -> None:
        self._base = base if base is not None else EuclideanDistance()
        if max_shift is not None and max_shift < 0:
            raise MetricError(f"max_shift must be non-negative; got {max_shift}")
        self._max_shift = max_shift

    @property
    def name(self) -> str:
        limit = "all" if self._max_shift is None else str(self._max_shift)
        return f"shift[{limit}]({self._base.name})"

    def _shifts(self, dim: int) -> range | list[int]:
        if self._max_shift is None or self._max_shift >= dim:
            return range(dim)
        k = self._max_shift
        return [s % dim for s in range(-k, k + 1)]

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        a, b = validate_same_shape(a, b, "shift")
        best = np.inf
        for shift in self._shifts(a.size):
            candidate = self._base.distance(a, np.roll(b, shift))
            if candidate < best:
                best = candidate
                if best == 0.0:
                    break
        return float(best)

    def _check_dim(self, dim: int) -> None:
        self._base._check_dim(dim)

    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        best: np.ndarray | None = None
        for shift in self._shifts(query.size):
            candidate = self._base._kernel(query, np.roll(vectors, shift, axis=1))
            best = candidate if best is None else np.minimum(best, candidate)
        assert best is not None  # _shifts is never empty (dim >= 1)
        return best
