"""T2 — Index construction cost vs. database size.

For N in {256 .. 2048}, build each index over 16-D clustered vectors and
report the build's distance computations (the 1994 cost unit) and the
tree shape.  Expected shape: all builds are O(N log N) in distance
computations; the Antipole build is the most expensive per item (its
tournaments pay for cluster quality), the kd-tree computes *no*
distances at build time (coordinate medians only).
"""

from __future__ import annotations

from benchmarks.conftest import print_experiment
from repro.eval.harness import ascii_table
from repro.index.antipole import AntipoleTree
from repro.index.kdtree import KDTree
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance

_SIZES = (256, 512, 1024, 2048)

_FACTORIES = {
    "vptree": lambda: VPTree(EuclideanDistance()),
    "antipole": lambda: AntipoleTree(EuclideanDistance()),
    "kdtree": lambda: KDTree(EuclideanDistance()),
}


def test_t2_build_cost_table(clustered_vectors):
    rows = []
    build_dists = {}
    for n in _SIZES:
        vectors = clustered_vectors[:n]
        ids = list(range(n))
        for name, factory in _FACTORIES.items():
            index = factory().build(ids, vectors)
            stats = index.build_stats
            build_dists[(name, n)] = stats.distance_computations
            rows.append(
                [
                    name,
                    n,
                    stats.distance_computations,
                    stats.distance_computations / n,
                    stats.n_nodes,
                    stats.n_leaves,
                    stats.depth,
                ]
            )
    print_experiment(
        ascii_table(
            ["index", "N", "build dists", "dists/item", "nodes", "leaves", "depth"],
            rows,
            title="T2: index construction cost vs N (16-D clustered vectors)",
        )
    )
    # Shape checks: coordinate medians cost no distances; the Antipole
    # tournaments are the most expensive build at every size.
    for n in _SIZES:
        assert build_dists[("kdtree", n)] == 0
        assert build_dists[("antipole", n)] > build_dists[("vptree", n)] > 0
