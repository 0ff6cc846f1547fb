"""Shared fixtures for the paper-figure experiments.

Each ``bench_*.py`` file regenerates one table/figure of the evaluation
reconstructed from PAPER.md (catalogue in ``docs/benchmarks.md``) and
asserts its shape in the paper's own cost units: distance computations,
page touches, retrieval quality.  Nothing here reads a clock; wall-clock
numbers come from ``benchmarks/e2e/`` only.  Everything expensive
(corpus generation, feature extraction) is session-scoped and seeded,
so the full suite is deterministic and runs in well under a minute.

Every experiment prints its result table to stdout (run with ``-s`` or
check the captured output).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.datasets import make_corpus_images
from repro.features.correlogram import ColorAutoCorrelogram
from repro.features.edges import EdgeOrientationHistogram
from repro.features.histogram import HSVHistogram, RGBJointHistogram
from repro.features.moments import ColorMoments
from repro.features.pipeline import FeatureSchema
from repro.features.shape import ShapeHistogram
from repro.features.texture import GLCMFeatures
from repro.features.wavelet import WaveletSignature


def quality_schema() -> FeatureSchema:
    """The full extractor roster used by the quality experiments."""
    return FeatureSchema(
        [
            HSVHistogram((18, 3, 3), working_size=32),
            RGBJointHistogram(4, working_size=32),
            ColorMoments("rgb"),
            ColorAutoCorrelogram(3, (1, 3), working_size=32),
            GLCMFeatures(16, working_size=32),
            GLCMFeatures(16, aggregate="concat", working_size=32),
            WaveletSignature(3, working_size=32),
            EdgeOrientationHistogram(18, working_size=32),
            ShapeHistogram(16, working_size=32),
        ]
    )


@pytest.fixture(scope="session")
def corpus():
    """Labelled corpus: 8 classes x 8 images at 32x32."""
    images, labels = make_corpus_images(8, size=32, seed=100)
    return images, labels


@pytest.fixture(scope="session")
def corpus_features(corpus):
    """All quality-schema features of the corpus, extracted once.

    Returns ``(ids, labels, {feature_name: (n, d) matrix})``.
    """
    images, labels = corpus
    schema = quality_schema()
    matrices: dict[str, np.ndarray] = {}
    for extractor in schema:
        matrices[extractor.name] = np.array([extractor.extract(im) for im in images])
    return list(range(len(images))), labels, matrices


@pytest.fixture(scope="session")
def clustered_vectors():
    """Feature-like clustered vectors for the index experiments.

    16-dimensional, 16 Gaussian clusters - the structure real image
    signatures exhibit (low intrinsic dimensionality in a higher
    embedding dimension).
    """
    from repro.eval.datasets import gaussian_clusters

    vectors, _ = gaussian_clusters(4096, 16, n_clusters=16, cluster_std=0.04, seed=7)
    return vectors


def print_experiment(table: str) -> None:
    """Emit an experiment table, framed so it is easy to grep in CI logs."""
    print()
    print("=" * 72)
    print(table)
    print("=" * 72)
