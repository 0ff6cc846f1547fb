"""Quadratic-form (QBIC) distance: cross-bin color similarity.

Plain bin-by-bin measures never compare *perceptually similar but
distinct* colors — dark red vs. slightly-darker red land in different
bins and count as fully different.  QBIC's answer is the quadratic form

    d(h, g) = sqrt( (h - g)^T  A  (h - g) )

where ``A[i, j]`` says how similar bin colors ``i`` and ``j`` are
(``A = I`` recovers Euclidean).  With ``A`` symmetric positive
semi-definite this is the Mahalanobis-style seminorm of the difference,
hence a true (pseudo)metric.

:func:`color_similarity_matrix` builds the standard ``A`` from the bin
centers of a joint RGB quantization: ``a_ij = 1 - d_ij / d_max``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric

__all__ = ["QuadraticFormDistance", "color_similarity_matrix", "rgb_bin_centers"]

_PSD_TOL = 1e-8

#: Cap on elements per (chunk, d, d) intermediate in the batch kernel.
_CHUNK_ELEMENTS = 1 << 22


class QuadraticFormDistance(Metric):
    """``sqrt((h-g)^T A (h-g))`` with a fixed PSD similarity matrix ``A``.

    Parameters
    ----------
    matrix:
        Symmetric positive semi-definite ``(d, d)`` array.  Symmetry and
        PSD-ness are verified at construction (eigenvalues down to a small
        negative tolerance are accepted and clipped).

    The kernel expands ``diff^T A diff`` with broadcasting and axis sums
    instead of BLAS matmul: BLAS accumulates differently for a single
    vector than for a matrix of them, so a row's distance would depend
    on the size of the block it arrived in.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MetricError(f"similarity matrix must be square; got {matrix.shape}")
        if not np.allclose(matrix, matrix.T, atol=1e-10):
            raise MetricError("similarity matrix must be symmetric")
        eigenvalues = np.linalg.eigvalsh(matrix)
        if eigenvalues.min() < -_PSD_TOL:
            raise MetricError(
                f"similarity matrix must be positive semi-definite; "
                f"min eigenvalue {eigenvalues.min():.3g}"
            )
        self._matrix = matrix

    @property
    def dim(self) -> int:
        """Expected operand dimensionality."""
        return self._matrix.shape[0]

    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        # values[i] = diff_i^T A diff_i via (chunk, d, d) broadcasting.
        dim = self.dim
        chunk = max(1, _CHUNK_ELEMENTS // (dim * dim))
        values = np.empty(vectors.shape[0], dtype=np.float64)
        for start in range(0, vectors.shape[0], chunk):
            diff = query - vectors[start : start + chunk]
            transformed = (diff[:, :, None] * self._matrix[None, :, :]).sum(axis=1)
            values[start : start + chunk] = (transformed * diff).sum(axis=1)
        # Guard tiny negative round-off before the root.
        return np.sqrt(np.maximum(values, 0.0))

    def _check_dim(self, dim: int) -> None:
        if dim != self.dim:
            raise MetricError(
                f"quadratic: operands have dim {dim}, matrix expects {self.dim}"
            )


def rgb_bin_centers(levels_per_channel: int) -> np.ndarray:
    """RGB coordinates of the joint-quantization bin centers.

    Bin order matches :func:`repro.image.color.quantize_rgb` (R most
    significant).  Returns an ``(levels**3, 3)`` array in [0, 1].
    """
    if levels_per_channel < 1:
        raise MetricError(f"levels_per_channel must be >= 1; got {levels_per_channel}")
    centers_1d = (np.arange(levels_per_channel) + 0.5) / levels_per_channel
    r, g, b = np.meshgrid(centers_1d, centers_1d, centers_1d, indexing="ij")
    return np.stack([r.ravel(), g.ravel(), b.ravel()], axis=1)


def color_similarity_matrix(levels_per_channel: int) -> np.ndarray:
    """The QBIC similarity matrix ``a_ij = 1 - d_ij / d_max`` over RGB bins.

    ``d_ij`` is the Euclidean distance between bin centers in RGB space
    and ``d_max`` its maximum, so diagonal entries are 1 and the most
    dissimilar color pair scores 0.  The result is symmetric; a small
    ridge is added if needed so it is numerically PSD.
    """
    centers = rgb_bin_centers(levels_per_channel)
    deltas = centers[:, None, :] - centers[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=2))
    d_max = distances.max()
    matrix = 1.0 - distances / d_max if d_max > 0 else np.ones_like(distances)
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues.min() < 0.0:
        matrix = matrix + (abs(eigenvalues.min()) + 1e-10) * np.eye(matrix.shape[0])
    return matrix
