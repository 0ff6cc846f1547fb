"""Metric protocol and instrumentation.

:class:`Metric` is the tiny contract every distance measure implements.
:class:`CountingMetric` wraps any metric and counts invocations — the
number of distance computations is the primary cost measure of the whole
evaluation (each distance computation in the 1994 setting implied fetching
a feature vector from disk), so the counter must be exact: indexes receive
the wrapped metric and are never allowed to sneak vectorized shortcuts
around it.

Batched evaluation goes through the same accounting.  ``distance_batch``
evaluates one query against many vectors in a single call: it validates
the operands once, then runs ``_kernel``, the metric's one unchecked
batch entry and the one method a metric must define: the scalar
``distance`` is the same kernel on a one-row block.  Indexes validate
at ``build`` and at the query entry point and call ``_kernel``
directly — a tree traversal is thousands of one-to-eight row calls.
The contract either way:

* ``distance_batch(q, V)[i]`` is **bit-identical** to ``distance(q, V[i])``
  — by construction for a metric that inherits ``distance``, and pinned
  by the kernel-contract suite for the few (EMD, Hausdorff, circular
  shift) whose own scalar ``distance`` is an independent reference the
  kernel is checked against;
* a batch over ``n`` vectors counts as exactly ``n`` distance
  computations on :class:`CountingMetric` and in index stats.  Batching
  saves interpreter overhead, never metric evaluations.

In practice bit-identity means kernels stick to elementwise arithmetic
plus ``sum``/``max`` reductions over the last axis (NumPy's pairwise
summation groups identically for a 1-D array and for each row of a 2-D
array) and avoid BLAS (``dot`` / ``matmul`` / ``linalg.norm``), whose
accumulation order differs between the vector and matrix code paths.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import MetricError

__all__ = [
    "Metric",
    "CountingMetric",
    "hide_batch_kernel",
    "pairwise_distances",
    "validate_same_shape",
    "validate_batch_operands",
]


def validate_same_shape(a: np.ndarray, b: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Coerce operands to float64 1-D arrays and check they align."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise MetricError(f"{name}: operand shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise MetricError(f"{name}: operands are empty")
    return a, b


def validate_batch_operands(
    query: np.ndarray, vectors: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a (query, vector-matrix) pair for batched evaluation.

    The query becomes a float64 1-D array, the vectors a float64
    ``(n, d)`` array with matching ``d``.  ``n == 0`` is allowed (the
    batch is simply empty).
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise MetricError(
            f"{name}: expected a 2-D (n, d) vector array; got shape {vectors.shape}"
        )
    if query.size == 0:
        raise MetricError(f"{name}: operands are empty")
    if vectors.shape[1] != query.size:
        raise MetricError(
            f"{name}: query has dim {query.size} but vectors have dim {vectors.shape[1]}"
        )
    return query, vectors


class Metric(ABC):
    """A distance function between feature vectors.

    Attributes
    ----------
    is_metric:
        True when the function satisfies the metric axioms (symmetry,
        identity, triangle inequality).  Tree indexes require it; scans
        do not.
    """

    is_metric: bool = True

    @property
    def name(self) -> str:
        """Human-readable identifier (defaults to the class name)."""
        return type(self).__name__

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two vectors (non-negative float): the
        checked kernel on a one-row block."""
        a, b = validate_same_shape(a, b, self.name)
        self._check_dim(a.size)
        return float(self._kernel(a, b[None, :])[0])

    def distance_batch(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to every row of ``vectors``.

        ``result[i]`` equals ``distance(query, vectors[i])`` bit-for-bit.
        This is the checked public entry and the same for every metric:
        coerce and validate the operands, then run :meth:`_kernel`.
        """
        query, vectors = validate_batch_operands(query, vectors, self.name)
        self._check_dim(query.size)
        return self._kernel(query, vectors)

    @abstractmethod
    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """The unchecked batch entry: distances from ``query`` to every row.

        Operands are already a float64 ``(d,)`` query and ``(n, d)``
        block, ``n >= 0``, of a dimension the metric accepts; the result
        is a float64 ``(n,)`` array whose rows do not depend on each
        other (the module docstring has the arithmetic rules).
        """

    def _check_dim(self, dim: int) -> None:
        """Raise if the metric's fixed parameters (weights, a similarity
        matrix) do not fit ``dim``-dimensional operands.  Checked paths
        only; an index asks once, at ``build``."""

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return self.distance(a, b)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CountingMetric(Metric):
    """Wrapper that counts every distance evaluation.

    The count is cumulative; use :meth:`reset` between measurements or
    :meth:`snapshot` for differential counting.  It stays exact when
    several threads evaluate at once — a scan's parts call
    :meth:`_kernel` from every core (``repro.db.backend.sweep``).

    Examples
    --------
    >>> from repro.metrics import EuclideanDistance
    >>> counter = CountingMetric(EuclideanDistance())
    >>> _ = counter.distance([0.0, 0.0], [3.0, 4.0])
    >>> counter.count
    1
    """

    def __init__(self, inner: Metric) -> None:
        if not isinstance(inner, Metric):
            raise MetricError(f"CountingMetric wraps a Metric; got {type(inner).__name__}")
        self._inner = inner
        self._count = 0
        self._lock = threading.Lock()
        self.is_metric = inner.is_metric

    @property
    def inner(self) -> Metric:
        """The wrapped metric."""
        return self._inner

    @property
    def name(self) -> str:
        return f"counted({self._inner.name})"

    @property
    def count(self) -> int:
        """Number of distance evaluations since construction or reset."""
        return self._count

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self._count = 0

    def snapshot(self) -> int:
        """Current count, for differential measurement."""
        return self._count

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        with self._lock:
            self._count += 1
        return self._inner.distance(a, b)

    def _kernel(self, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        # Delegate to the inner kernel so batching stays fast, then count
        # one evaluation per row — a batch is n fetches, not one.
        distances = self._inner._kernel(query, vectors)
        with self._lock:
            self._count += distances.shape[0]
        return distances

    def _check_dim(self, dim: int) -> None:
        self._inner._check_dim(dim)


def hide_batch_kernel(metric: Metric) -> Metric:
    """A clone of ``metric`` whose ``_kernel`` loops over the rows.

    Parity tests use this to model the scalar-era cost:
    every batched call site degrades to one interpreted ``distance``
    call per row, while results stay bit-identical by the batch
    contract.  The clone subclasses the metric's own class, so indexes
    with ``isinstance`` checks (the kd-tree) still accept it.  Rows go
    to the *original*'s scalar ``distance`` (most scalar paths run their
    own ``_kernel`` on a one-row block), so count by wrapping the clone.
    """
    import copy

    def per_row(self: Metric, query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return np.array(
            [metric.distance(query, row) for row in vectors], dtype=np.float64
        )

    cls = type(metric)
    hidden = type(f"Scalar{cls.__name__}", (cls,), {"_kernel": per_row})
    clone = copy.copy(metric)
    clone.__class__ = hidden
    return clone


def pairwise_distances(metric: Metric, vectors: np.ndarray) -> np.ndarray:
    """Full symmetric pairwise distance matrix of a vector set.

    O(n^2) metric calls; intended for evaluation statistics on modest sets,
    not for search (that is what the indexes are for).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise MetricError(f"expected a 2-D (n, d) array; got shape {vectors.shape}")
    n = vectors.shape[0]
    result = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = metric.distance(vectors[i], vectors[j])
            result[i, j] = d
            result[j, i] = d
    return result
