"""Quickstart: build an image database, query by example, inspect costs.

Runs entirely on synthetic images (no downloads):

1. generate a small labelled corpus (8 visual classes),
2. insert everything into an :class:`repro.ImageDatabase` (features are
   extracted automatically per the default schema),
3. run a query-by-example k-NN search,
4. show that the VP-tree answered it with far fewer distance
   computations than a linear scan would need,
5. answer a whole batch of queries with one call and check it agrees
   with the scalar path.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import ImageDatabase
from repro.eval.datasets import make_corpus_images
from repro.eval.harness import ascii_table
from repro.image import synth


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A labelled corpus: 6 images of each of the 8 classes.
    # ------------------------------------------------------------------
    images, labels = make_corpus_images(6, size=48, seed=42)
    print(f"corpus: {len(images)} images, classes: {sorted(set(labels))}\n")

    # ------------------------------------------------------------------
    # 2. Insert into the database. The default schema extracts HSV and
    #    RGB histograms, color moments, GLCM texture, wavelet signatures
    #    and edge-orientation histograms for every image.
    # ------------------------------------------------------------------
    db = ImageDatabase()
    for image, label in zip(images, labels):
        db.add_image(image, label=label)
    print(f"inserted {len(db)} images; features: {list(db.schema.names)}\n")

    # ------------------------------------------------------------------
    # 3. Query by example: a fresh red scene the database has never seen.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(7)
    query = synth.compose_scene(
        48, 48, rng,
        background=synth.solid(48, 48, (0.55, 0.45, 0.40)),
        palette=[(0.85, 0.10, 0.10), (0.95, 0.30, 0.15)],
    )
    results = db.query(query, k=5, feature="hsv_hist_18x3x3")

    rows = [
        [str(r.image_id), r.record.label or "-", r.distance]
        for r in results
    ]
    print(ascii_table(["image id", "label", "distance"], rows,
                      title="top-5 by HSV histogram (query: unseen red scene)"))

    # ------------------------------------------------------------------
    # 4. Cost: the VP-tree vs what a scan would have paid.
    # ------------------------------------------------------------------
    index = db.index_for("hsv_hist_18x3x3")
    stats = index.last_stats
    print(
        f"\nVP-tree cost: {stats.distance_computations} distance computations "
        f"(linear scan would be {len(db)}), "
        f"{stats.nodes_pruned} subtree(s) pruned via the triangle inequality"
    )

    # ------------------------------------------------------------------
    # 5. Batched queries: several examples answered by one call, with
    #    results identical to querying one at a time.
    # ------------------------------------------------------------------
    batch = [synth.compose_scene(48, 48, rng, n_shapes=3) for _ in range(4)]
    batched = db.query_batch(batch, k=3, feature="hsv_hist_18x3x3")
    scalar = [db.query(image, k=3, feature="hsv_hist_18x3x3") for image in batch]
    agree = all(
        [(r.image_id, r.distance) for r in b] == [(r.image_id, r.distance) for r in s]
        for b, s in zip(batched, scalar)
    )
    print(
        f"\nbatched 4 queries in one call: top labels "
        f"{[results[0].record.label for results in batched]}; "
        f"identical to scalar queries: {agree}"
    )
    if not agree:  # the batch engine's contract — make smoke runs fail loudly
        raise SystemExit("batched results diverged from scalar queries")


if __name__ == "__main__":
    main()
