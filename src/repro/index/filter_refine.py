"""GEMINI filter-and-refine search over a contractive projection.

The classic answer to the curse of dimensionality (experiment F2) is not
a better tree — it is a *cheaper space*.  The GEMINI recipe (GEneric
Multimedia INdexIng, the QBIC-era standard):

1. **reduce** — project every signature into a few dimensions with a
   *contractive* map (:mod:`repro.reduce`), so reduced distances never
   exceed true distances;
2. **filter** — answer the query in the reduced space with an ordinary
   spatial index.  Contractiveness makes every reduced-space rejection
   safe: anything outside the ball there is provably outside it in the
   original space (*no false dismissals*);
3. **refine** — compute the true distance only for the survivors and
   discard the false alarms.

Range queries filter at the same radius.  k-NN queries use the standard
two-pass scheme: take the reduced-space k-NN as seeds, compute their true
distances, and re-filter at the worst seed distance — an upper bound on
the true k-th distance, so the final answer is exact.

Cost accounting separates the two currencies: ``last_stats`` counts
**full-metric evaluations** (the expensive, page-fetching kind GEMINI
exists to avoid), while :attr:`FilterRefineIndex.last_filter_stats`
counts the cheap reduced-space work.  Experiment F8 reports both, plus
the candidate ratio.  The refine step computes the survivors' true
distances through one batched metric evaluation per pass (same count,
one NumPy call instead of a Python loop when the metric has a
vectorized kernel).

When the reducer is *not* provably contractive (FastMap on non-Euclidean
metrics), results may miss true answers; the index surfaces this via
:attr:`FilterRefineIndex.exact` so callers can label their results.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import IndexingError
from repro.index.base import MetricIndex, Neighbor
from repro.index.kdtree import KDTree
from repro.index.stats import SearchStats
from repro.metrics.base import Metric
from repro.metrics.minkowski import EuclideanDistance
from repro.reduce.base import Reducer

__all__ = ["FilterRefineIndex"]

InnerFactory = Callable[[Metric], MetricIndex]

#: Absolute + relative slack added to *filter* radii only.  The math says
#: reduced distance <= true distance, but batch and single-vector BLAS
#: paths can disagree in the last ulp; the refine step still applies the
#: exact predicate, so the slack admits at most a few extra candidates
#: and never a wrong result.
_FILTER_SLACK = 1e-9


class FilterRefineIndex(MetricIndex):
    """Lower-bound filter in reduced space + exact refine in full space.

    Parameters
    ----------
    metric:
        The true distance, used only in the refine step.  Need not be a
        metric — the pruning happens in the reduced space.
    reducer:
        A :class:`~repro.reduce.base.Reducer`.  If unfitted, it is
        fitted on the build vectors.  Exactness of query results equals
        its ``contractive`` guarantee.
    inner_factory:
        Builds the reduced-space index from a (Euclidean) metric;
        default is a kd-tree, the natural structure for the few
        coordinate axes the reducer emits.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.reduce import KLTransform
    >>> rng = np.random.default_rng(0)
    >>> vectors = rng.random((200, 32))
    >>> index = FilterRefineIndex(EuclideanDistance(), KLTransform(4))
    >>> _ = index.build(list(range(200)), vectors)
    >>> index.exact
    True
    """

    requires_metric = False

    def __init__(
        self,
        metric: Metric,
        reducer: Reducer,
        *,
        inner_factory: InnerFactory | None = None,
    ) -> None:
        super().__init__(metric)
        if not isinstance(reducer, Reducer):
            raise IndexingError(
                f"FilterRefineIndex needs a Reducer; got {type(reducer).__name__}"
            )
        self._reducer = reducer
        self._inner_factory: InnerFactory = inner_factory or (
            lambda inner_metric: KDTree(inner_metric)
        )
        self._inner: MetricIndex | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def reducer(self) -> Reducer:
        """The projection the filter searches in."""
        return self._reducer

    @property
    def inner(self) -> MetricIndex:
        """The reduced-space index (available after build)."""
        if self._inner is None:
            raise IndexingError("index has not been built yet")
        return self._inner

    @property
    def exact(self) -> bool:
        """True when results are guaranteed exact (contractive reducer)."""
        return self._reducer.contractive

    @property
    def last_filter_stats(self) -> SearchStats:
        """Reduced-space cost of the most recent query (both passes);
        after a batch, the sum over it, like ``last_stats``."""
        return self._filter_stats

    @property
    def last_candidate_count(self) -> int:
        """Items that survived the filter in the most recent query (the
        total after a batch)."""
        return self._candidate_count

    @property
    def last_candidate_ratio(self) -> float:
        """Survivors as a fraction of the database (filter selectivity),
        averaged per query after a batch, so it stays in [0, 1]."""
        if not self.size:
            return 0.0
        return self._candidate_count / (self.size * max(self._query_count, 1))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        if not self._reducer.is_fitted:
            self._reducer.fit(vectors)
        elif self._reducer.in_dim != vectors.shape[1]:
            raise IndexingError(
                f"reducer was fitted for dim {self._reducer.in_dim}, "
                f"but build vectors have dim {vectors.shape[1]}"
            )
        reduced = self._reducer.transform(vectors)
        self._inner = self._inner_factory(EuclideanDistance())
        # One live set: the filter's candidates are live, never refined dead.
        self._inner.live_mask = self.live_mask
        self._inner.build(ids, reduced)
        self._build_stats.n_nodes = self._inner.build_stats.n_nodes
        self._build_stats.n_leaves = self._inner.build_stats.n_leaves
        self._build_stats.depth = self._inner.build_stats.depth
        self._build_stats.extra["reduced_dim"] = self._reducer.out_dim

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _reset_stats(self, n_queries: int = 1) -> None:
        super()._reset_stats(n_queries)
        self._filter_stats, self._candidate_count = SearchStats(), 0
        self._query_count = n_queries

    def _refine(self, query: np.ndarray, ids: Sequence[int]) -> np.ndarray:
        """True distances for the given candidate ids, one batched call.

        The refine step has no evaluation-order dependence (every
        survivor's true distance is needed), so it rides the metric's
        vectorized kernel; the count is ``len(ids)`` either way.
        """
        assert self._vectors is not None
        return self._dist_batch(query, self._vectors[self._row_of.rows(ids)])

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        assert self._inner is not None and self._vectors is not None
        reduced_query = self._reducer.transform(query)
        filter_radius = radius + _FILTER_SLACK * (1.0 + radius)
        candidates = self._inner.range_search(reduced_query, filter_radius)
        self._filter_stats.merge(self._inner.last_stats)
        self._candidate_count += len(candidates)

        distances = self._refine(query, [candidate.id for candidate in candidates])
        return [
            Neighbor(candidate.id, float(d))
            for candidate, d in zip(candidates, distances)
            if d <= radius
        ]

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        assert self._inner is not None and self._vectors is not None
        reduced_query = self._reducer.transform(query)

        # Pass 1: reduced-space k-NN seeds an upper bound on the true
        # k-th distance.
        seeds = self._inner.knn_search(reduced_query, k)
        self._filter_stats.merge(self._inner.last_stats)
        if not seeds:  # no live row in the structure
            return []
        true_distance: dict[int, float] = {
            nb.id: float(d)
            for nb, d in zip(seeds, self._refine(query, [nb.id for nb in seeds]))
        }
        bound = max(true_distance.values())

        # Pass 2: every true k-NN member has reduced distance <= its true
        # distance <= bound, so this candidate set is complete (when the
        # reducer is contractive).
        filter_bound = bound + _FILTER_SLACK * (1.0 + bound)
        candidates = self._inner.range_search(reduced_query, filter_bound)
        self._filter_stats.merge(self._inner.last_stats)
        self._candidate_count += len(candidates)

        fresh = [nb.id for nb in candidates if nb.id not in true_distance]
        true_distance.update(
            (item_id, float(d))
            for item_id, d in zip(fresh, self._refine(query, fresh))
        )
        ranked = sorted(true_distance.items(), key=lambda kv: (kv[1], kv[0]))
        return [Neighbor(item_id, d) for item_id, d in ranked[:k]]
