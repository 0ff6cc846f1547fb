"""Hausdorff distance between point sets.

For features that are *sets* (edge-pixel coordinates, dominant-color
palettes) rather than fixed-length vectors, the paper uses the Hausdorff
distance: the farthest any point of one set is from the other set,

    H(A, B) = max( h(A, B), h(B, A) ),
    h(A, B) = max_{a in A} min_{b in B} d(a, b),

with Euclidean point-to-point distance.  It is a true metric on non-empty
compact sets.  The implementation is vectorized over the smaller side and
exact; point sets are modest (edge maps are subsampled upstream).

The batch kernel handles *ragged* candidate sets (rows carry different
point counts after their NaN padding is dropped) by compacting each
row's valid values to the front, padding the stacked point tensor to the
largest set, and evaluating all pairwise point-distance blocks at once
with the padding masked out of the min/max folds.  The per-pair floats
— elementwise squared differences, a last-axis sum, a square root — are
grouped exactly as the scalar path groups them, and min/max reductions
are order-free, so every row is bit-identical to ``distance``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric

__all__ = ["directed_hausdorff", "hausdorff", "HausdorffDistance"]


def _as_point_set(points: np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(points, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2 or array.shape[0] == 0:
        raise MetricError(f"{name}: expected a non-empty (n, d) point set; got {array.shape}")
    return array


def directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """``h(A, B) = max_a min_b ||a - b||`` (one-sided)."""
    a = _as_point_set(a, "hausdorff")
    b = _as_point_set(b, "hausdorff")
    if a.shape[1] != b.shape[1]:
        raise MetricError(
            f"hausdorff: point dimensionality differs: {a.shape[1]} vs {b.shape[1]}"
        )
    worst = 0.0
    # Chunk over A to bound the (|A| x |B|) intermediate.
    chunk = max(1, 4096 // max(1, b.shape[0]) + 1)
    for start in range(0, a.shape[0], chunk):
        block = a[start : start + chunk]
        deltas = block[:, None, :] - b[None, :, :]
        nearest = np.sqrt((deltas**2).sum(axis=2)).min(axis=1)
        worst = max(worst, float(nearest.max()))
    return worst


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance ``max(h(A,B), h(B,A))``."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


class HausdorffDistance(Metric):
    """Metric adapter: operands are flattened ``(n*d,)`` point buffers.

    Because the index layer traffics in 1-D vectors, point sets are packed
    as flat arrays with a declared point dimensionality; trailing NaN
    padding (from fixed-size store records) is dropped.

    Parameters
    ----------
    point_dim:
        Dimensionality of each point (2 for pixel coordinates).
    """

    def __init__(self, point_dim: int = 2) -> None:
        if point_dim < 1:
            raise MetricError(f"point_dim must be >= 1; got {point_dim}")
        self._point_dim = point_dim

    @property
    def name(self) -> str:
        return f"hausdorff_{self._point_dim}d"

    def _unpack(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64).ravel()
        flat = flat[~np.isnan(flat)]
        if flat.size == 0 or flat.size % self._point_dim:
            raise MetricError(
                f"hausdorff: buffer of {flat.size} values is not a whole number "
                f"of {self._point_dim}-d points"
            )
        return flat.reshape(-1, self._point_dim)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return hausdorff(self._unpack(a), self._unpack(b))

    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Vectorized kernel over padded/masked ragged point sets."""
        n = vectors.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.float64)
        query_points = self._unpack(query)
        dim = self._point_dim

        valid = ~np.isnan(vectors)
        counts = valid.sum(axis=1)
        bad = (counts == 0) | (counts % dim != 0)
        if np.any(bad):
            size = int(counts[int(np.argmax(bad))])
            raise MetricError(
                f"hausdorff: buffer of {size} values is not a whole number "
                f"of {dim}-d points"
            )

        # Compact each row's valid values to the front; the stable sort
        # keeps them in buffer order, exactly like the scalar unpack.
        # Padding becomes +inf, so padded points sit at infinite squared
        # distance and drop out of the min folds with no explicit mask.
        order = np.argsort(~valid, axis=1, kind="stable")
        packed = np.take_along_axis(vectors, order, axis=1)
        max_values = int(counts.max())  # a multiple of dim: every count is
        packed = packed[:, :max_values]
        packed = np.where(
            np.arange(max_values)[None, :] < counts[:, None], packed, np.inf
        )
        points = np.ascontiguousarray(packed).reshape(n, max_values // dim, dim)
        point_valid = (
            np.arange(max_values // dim)[None, :] < (counts // dim)[:, None]
        )

        n_query = query_points.shape[0]
        max_points = points.shape[1]
        out = np.empty(n, dtype=np.float64)
        # The folds run on *squared* distances — sqrt is monotone, so
        # min/max commute with it bit for bit and one sqrt per row at the
        # end reproduces the scalar path's per-pair sqrt exactly.  Chunk
        # over rows to keep the (chunk, |A|, |B|, d) intermediate in
        # cache (~1 MB).
        chunk = max(1, 131_072 // max(1, n_query * max_points * dim))
        for start in range(0, n, chunk):
            block = points[start : start + chunk]
            block_valid = point_valid[start : start + chunk]
            deltas = query_points[None, :, None, :] - block[:, None, :, :]
            np.multiply(deltas, deltas, out=deltas)
            squared = deltas.sum(axis=3)  # (chunk, |A|, |B|)
            # h(A, B): each query point's nearest candidate point (padding
            # is +inf and never the min), then the farthest such.
            forward = squared.min(axis=2).max(axis=1)
            # h(B, A): each valid candidate point's nearest query point,
            # padding masked out of the outer max.
            backward = np.where(block_valid, squared.min(axis=1), -np.inf).max(
                axis=1
            )
            out[start : start + chunk] = np.sqrt(np.maximum(forward, backward))
        return out
