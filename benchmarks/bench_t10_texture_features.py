"""T10 — Texture feature face-off: GLCM vs Gabor vs Tamura vs wavelet.

Leave-one-out retrieval restricted to the five texture-dominated corpus
classes (checkerboards, horizontal stripes, diagonal stripes, fine
noise, smooth blobs) — color is nearly useless here by construction, so
this isolates what each texture representation captures.

Expected shape: the orientation-aware features (Gabor; GLCM with
per-offset concatenation) separate the two stripe orientations that
orientation-pooled GLCM cannot; Tamura's three perceptual numbers are
surprisingly competitive for their size; every feature beats the 1/5
chance level.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.datasets import make_corpus_images
from repro.eval.groundtruth import RelevanceJudgments
from repro.eval.harness import ascii_table
from repro.eval.metrics import mean_average_precision, mean_precision_at_k
from repro.features.gabor import GaborFeatures
from repro.features.pipeline import FeatureSchema
from repro.features.tamura import TamuraFeatures
from repro.features.texture import GLCMFeatures
from repro.features.wavelet import WaveletSignature
from repro.index.linear import LinearScanIndex
from repro.metrics.minkowski import EuclideanDistance

_TEXTURE_CLASSES = (
    "checkerboards",
    "stripes_horizontal",
    "stripes_diagonal",
    "noise_fine",
    "smooth_blobs",
)
_PER_CLASS = 10
_K = 9  # per-class relevant set size for leave-one-out


def _texture_schema() -> FeatureSchema:
    return FeatureSchema(
        [
            GLCMFeatures(16, working_size=32),
            GLCMFeatures(16, aggregate="concat", working_size=32),
            GaborFeatures(2, 4, working_size=32),
            TamuraFeatures(working_size=32),
            WaveletSignature(3, working_size=32),
        ]
    )


def _leave_one_out_rankings(ids, matrix, k):
    index = LinearScanIndex(EuclideanDistance()).build(ids, matrix)
    rankings = {}
    for row, query_id in enumerate(ids):
        neighbors = index.knn_search(matrix[row], k + 1)
        rankings[query_id] = [n.id for n in neighbors if n.id != query_id][:k]
    return rankings


def test_t10_texture_quality_table():
    images, labels = make_corpus_images(_PER_CLASS, size=32, seed=300)
    keep = [row for row, label in enumerate(labels) if label in _TEXTURE_CLASSES]
    images = [images[row] for row in keep]
    labels = [labels[row] for row in keep]
    ids = list(range(len(images)))
    judgments = RelevanceJudgments.from_labels(ids, labels)

    schema = _texture_schema()
    rows = []
    precision_by_feature = {}
    for extractor in schema:
        matrix = np.array([extractor.extract(image) for image in images])
        rankings = _leave_one_out_rankings(ids, matrix, _K)
        p5 = mean_precision_at_k(rankings, judgments, 5)
        ap = mean_average_precision(rankings, judgments)
        precision_by_feature[extractor.name] = p5
        rows.append([extractor.name, extractor.dim, p5, ap])
    rows.sort(key=lambda r: -r[2])
    print_experiment(
        ascii_table(
            ["feature", "dim", "precision@5", "MAP"],
            rows,
            title=f"T10: texture features on {len(_TEXTURE_CLASSES)} texture "
            f"classes x {_PER_CLASS} images (chance = 0.2)",
        )
    )

    chance = 1.0 / len(_TEXTURE_CLASSES)
    for feature, p5 in precision_by_feature.items():
        assert p5 > chance, feature
    # Orientation-aware features must beat the orientation-pooled GLCM,
    # which cannot split the two stripe classes.
    pooled = precision_by_feature["glcm_16l_4o_mean"]
    assert precision_by_feature["gabor_2s_4o"] > pooled
    assert precision_by_feature["glcm_16l_4o_concat"] >= pooled
