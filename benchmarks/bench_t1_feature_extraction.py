"""T1 — Feature extractor inventory: signature dimensionality.

Regenerates the evaluation's feature-inventory table: every extractor
of the quality roster and the dimensionality of the signature it
produces from a 64x64 synthetic scene.

Expected shape: moments and wavelet signatures are the compact
features, the joint histograms and the correlogram the wide ones; each
extractor returns exactly the dimensionality it declares, so signatures
can be extracted once, at insertion time, into fixed-width stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_experiment, quality_schema
from repro.eval.harness import ascii_table
from repro.image import synth

_SCHEMA = quality_schema()


@pytest.fixture(scope="module")
def sample_image():
    rng = np.random.default_rng(0)
    return synth.compose_scene(64, 64, rng, n_shapes=4)


def test_t1_inventory_table(sample_image):
    rows = []
    for extractor in _SCHEMA:
        vector = extractor.extract(sample_image)
        assert vector.shape == (extractor.dim,), extractor.name
        rows.append([extractor.name, extractor.dim])
    print_experiment(
        ascii_table(
            ["extractor", "dim"],
            rows,
            title="T1: feature extractor inventory",
        )
    )
