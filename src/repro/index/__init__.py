"""Metric-space index structures — the paper's core contribution.

A content-based image index organizes feature vectors so that *range*
queries ("everything within distance t of this picture") and *k-NN*
queries ("the k most similar pictures") touch far fewer vectors than a
linear scan.  The only tool available in a general metric space is the
triangle inequality, and every structure here is built on it:

:class:`~repro.index.linear.LinearScanIndex`
    The baseline every experiment compares against: exactly N distance
    computations per query, trivially exact.
:class:`~repro.index.vptree.VPTree`
    The vantage-point tree: each node picks a pivot, splits the rest at
    the median distance to it, and search prunes whole subtrees whose
    distance interval cannot intersect the query ball.  Supports exact
    range and branch-and-bound k-NN search plus two bounded approximation
    modes.  This is the reproduction's headline structure.
:class:`~repro.index.antipole.AntipoleTree`
    Antipole clustering (Cantone et al.): recursive splits driven by an
    approximate farthest pair ("antipole"), bounded-radius leaf clusters
    around an approximate 1-median, and triangle-inequality search with
    both exclusion and inclusion pruning.
:class:`~repro.index.laesa.LAESAIndex`
    The pivot-table alternative (Micó/Oncina/Vidal 1994, exactly
    contemporary with the reproduced paper): precompute distances to m
    pivots, lower-bound every object with the triangle inequality, and
    compute true distances only for survivors — memory traded for metric
    evaluations.
:class:`~repro.index.mtree.MTree`
    The dynamic, paged metric tree (Ciaccia/Patella/Zezula): grows
    bottom-up through B-tree-style page splits, so images can keep
    arriving after the initial build; search prunes with both the
    covering radius and the stored parent distances.  Pages double as
    the I/O cost unit of experiment T9.
:class:`~repro.index.gnat.GNAT`
    Brin's geometric near-neighbor access tree: m-way splits around
    greedily spread split points plus per-pair distance-interval tables,
    trading a costlier build for stronger pruning per computed distance.
:class:`~repro.index.filter_refine.FilterRefineIndex`
    The GEMINI pipeline: search a cheap contractive projection of the
    features (KL transform / FastMap, :mod:`repro.reduce`), then refine
    the surviving candidates with the full metric — lower-bounding
    guarantees no false dismissals.
:class:`~repro.index.kdtree.KDTree`
    The coordinate-space baseline: median splits on the widest dimension.
    Only valid for Minkowski metrics, which is the point the dimensionality
    experiment makes about general metric data.

All indexes share the :class:`~repro.index.base.MetricIndex` interface —
scalar ``range_search`` / ``knn_search`` plus their batched ``_batch``
variants, which run the scalar body once per row of an ``(m, d)`` query
matrix, so their results are bit-identical — and report per-query
:class:`~repro.index.stats.SearchStats` whose distance counts the test
suite verifies against wrapped-metric ground truth.  All of them also
accept post-build mutations.  An index holds rows, not liveness: one
live mask over ids, shared by a database's indexes, says which rows
answer, and dead rows leave later (the linear scan and LAESA compact,
the trees rebuild past a threshold).  Query results stay exact over the
live item set with fully counted costs (``docs/mutability.md``).
"""

from repro.index.base import MetricIndex, Neighbor
from repro.index.stats import BuildStats, SearchStats
from repro.index.linear import LinearScanIndex
from repro.index.vptree import VPTree
from repro.index.antipole import AntipoleTree
from repro.index.kdtree import KDTree
from repro.index.laesa import LAESAIndex
from repro.index.mtree import MTree
from repro.index.gnat import GNAT
from repro.index.filter_refine import FilterRefineIndex
from repro.index.browse import browse
from repro.index.pivot import (
    MaxSpreadPivot,
    MaxVariancePivot,
    PivotStrategy,
    RandomPivot,
)

__all__ = [
    "MetricIndex",
    "Neighbor",
    "SearchStats",
    "BuildStats",
    "LinearScanIndex",
    "VPTree",
    "AntipoleTree",
    "KDTree",
    "LAESAIndex",
    "MTree",
    "GNAT",
    "FilterRefineIndex",
    "browse",
    "PivotStrategy",
    "RandomPivot",
    "MaxSpreadPivot",
    "MaxVariancePivot",
]
