"""F4 — Feature invariance under image transforms.

For each (feature, transform) pair: transform every corpus image, and
report the mean feature displacement *relative to the median distance
between different images* under that feature.  0 means fully invariant,
1 means the transform displaces an image as far as swapping it for an
unrelated one.

Expected shape (the paper's claims):

* color histograms ~invariant to rotation and flips, brittle to
  brightness shifts (mass crosses bin boundaries wholesale);
* edge-orientation histograms are NOT rotation invariant - and the
  circular-shift matched variant recovers most of the loss;
* wavelet signatures are robust to noise and intensity shifts;
* everything degrades gracefully under small crops.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.eval.harness import ascii_table
from repro.eval.stats import distance_sample
from repro.features.edges import EdgeOrientationHistogram
from repro.features.histogram import HSVHistogram, RGBJointHistogram
from repro.features.wavelet import WaveletSignature
from repro.image import transforms as tf
from repro.metrics.minkowski import EuclideanDistance
from repro.metrics.shifted import CircularShiftDistance

_TRANSFORMS = {
    "rot90": lambda img, rng: tf.rotate90(img),
    "flip_h": lambda img, rng: tf.flip_horizontal(img),
    "bright+0.1": lambda img, rng: tf.adjust_brightness(img, 0.1),
    "noise 0.05": lambda img, rng: tf.add_gaussian_noise(img, rng, 0.05),
    "crop 80%": lambda img, rng: tf.center_crop(img, 0.8),
}

_FEATURES = {
    "hsv_hist": HSVHistogram((18, 3, 3), working_size=32),
    "rgb_hist": RGBJointHistogram(4, working_size=32),
    "wavelet": WaveletSignature(3, working_size=32),
    "edge_orient": EdgeOrientationHistogram(18, working_size=32),
}


def test_f4_invariance_table(corpus):
    images, _ = corpus
    images = images[::4]  # 16 images suffice for stable means
    rng = np.random.default_rng(4)
    euclid = EuclideanDistance()
    shift_match = CircularShiftDistance(euclid)

    relative = {}
    rows = []
    for feature_name, extractor in _FEATURES.items():
        originals = np.array([extractor.extract(image) for image in images])
        scale = float(np.median(distance_sample(euclid, originals, n_pairs=500, seed=0)))
        scale = scale if scale > 0 else 1.0
        row = [feature_name]
        for transform_name, transform in _TRANSFORMS.items():
            displacements = []
            for image, original in zip(images, originals):
                transformed = extractor.extract(transform(image, rng))
                displacements.append(euclid.distance(original, transformed) / scale)
            value = float(np.mean(displacements))
            relative[(feature_name, transform_name)] = value
            row.append(value)
        rows.append(row)

    # The shift-matched edge-orientation variant, rotation column only.
    extractor = _FEATURES["edge_orient"]
    originals = np.array([extractor.extract(image) for image in images])
    scale = float(np.median(distance_sample(euclid, originals, n_pairs=500, seed=0))) or 1.0
    shifted = float(
        np.mean(
            [
                shift_match.distance(orig, extractor.extract(tf.rotate90(image)))
                for image, orig in zip(images, originals)
            ]
        )
        / scale
    )
    rows.append(["edge_orient+shift", shifted, "-", "-", "-", "-"])

    print_experiment(
        ascii_table(
            ["feature"] + list(_TRANSFORMS),
            rows,
            title="F4: mean feature displacement / median inter-image distance "
            "(0 = invariant, 1 = unrelated)",
        )
    )

    # Shape checks: the paper's invariance claims.
    assert relative[("hsv_hist", "rot90")] < 0.05
    assert relative[("hsv_hist", "flip_h")] < 0.05
    assert relative[("edge_orient", "rot90")] > 0.3       # not invariant
    assert shifted < relative[("edge_orient", "rot90")] / 2  # shift-matching recovers
    assert relative[("hsv_hist", "bright+0.1")] > relative[("hsv_hist", "rot90")]
