"""Pivot (vantage point) selection strategies for the VP-tree.

How much a vantage point prunes depends on the *spread* of distances from
it: a pivot in the middle of the data sees a narrow distance distribution
and separates nothing, while a pivot at the edge ("corner") of the space
sees a wide one.  Experiment T4 quantifies the effect; these are the
strategies it sweeps:

:class:`RandomPivot`
    Uniform choice — the control.
:class:`MaxSpreadPivot`
    Two-sweep farthest-point heuristic: pick a random item, take the item
    farthest from it.  Cheap (2n distances) and reliably peripheral.
:class:`MaxVariancePivot`
    Yianilos' criterion: among a candidate sample, keep the candidate with
    the largest variance of distances to a data sample.

Strategies are deterministic given their ``numpy.random.Generator``.

Candidate spreads are computed in batch: the index supplies its counted
``dist_batch`` callable, and each sweep is one vectorized kernel pass
over the candidate block (a batch of n rows is n computations).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.index.base import check_count

__all__ = ["PivotStrategy", "RandomPivot", "MaxSpreadPivot", "MaxVariancePivot"]

#: The index's counted distance callable, so pivot work is counted:
#: distances from one anchor to every row of a vector block.
DistanceBatchFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class PivotStrategy(ABC):
    """Chooses which of ``vectors`` becomes the node's vantage point."""

    @property
    def name(self) -> str:
        """Identifier used in ablation tables."""
        return type(self).__name__

    @abstractmethod
    def select(
        self,
        vectors: np.ndarray,
        dist_batch: DistanceBatchFn,
        rng: np.random.Generator,
    ) -> int:
        """Return the row index of the chosen pivot.

        ``vectors`` is the ``(m, d)`` subset being split (``m >= 1``);
        ``dist_batch`` must be used for all distance evaluations so the
        build cost accounting stays exact.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RandomPivot(PivotStrategy):
    """Uniformly random pivot."""

    def select(
        self,
        vectors: np.ndarray,
        dist_batch: DistanceBatchFn,
        rng: np.random.Generator,
    ) -> int:
        return int(rng.integers(vectors.shape[0]))


class MaxSpreadPivot(PivotStrategy):
    """Farthest point from a random seed (two-sweep heuristic)."""

    def select(
        self,
        vectors: np.ndarray,
        dist_batch: DistanceBatchFn,
        rng: np.random.Generator,
    ) -> int:
        m = vectors.shape[0]
        if m == 1:
            return 0
        seed = int(rng.integers(m))
        return int(np.argmax(dist_batch(vectors[seed], vectors)))


class MaxVariancePivot(PivotStrategy):
    """Candidate with the largest distance variance over a data sample.

    Parameters
    ----------
    n_candidates:
        Pivot candidates drawn at random (default 8).
    sample_size:
        Data items each candidate is evaluated against (default 16).
    """

    def __init__(self, n_candidates: int = 8, sample_size: int = 16) -> None:
        self._n_candidates = check_count("n_candidates", n_candidates, 1)
        self._sample_size = check_count("sample_size", sample_size, 2)

    def select(
        self,
        vectors: np.ndarray,
        dist_batch: DistanceBatchFn,
        rng: np.random.Generator,
    ) -> int:
        m = vectors.shape[0]
        if m <= 2:
            return 0
        candidates = rng.choice(m, size=min(self._n_candidates, m), replace=False)
        sample = rng.choice(m, size=min(self._sample_size, m), replace=False)
        sample_block = vectors[sample]
        best_index = int(candidates[0])
        best_variance = -1.0
        for candidate in candidates:
            variance = float(np.var(dist_batch(vectors[candidate], sample_block)))
            if variance > best_variance:
                best_variance = variance
                best_index = int(candidate)
        return best_index
