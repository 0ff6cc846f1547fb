"""F9 — Relevance feedback: precision per judgment round.

Feedback earns its keep when the starting query is *ambiguous*, so each
trial queries with a signature blended halfway between the target class
and a decoy class (every class takes a turn as target, its corpus
neighbour as decoy).  A simulated user then judges the top-10 by class
label (target class = relevant) for three Rocchio rounds.

Reported: mean precision@10 over all eight target classes after 0-3
rounds, for the standard Rocchio rule and for a no-movement control
(judgments are collected but alpha=1, beta=gamma=0 never moves the
query).

Expected shape: round 0 starts mid-range (the ambiguous query drags in
the decoy class), the first feedback round recovers most of the gap,
later rounds add little — the classic query-point-movement curve.  The
control stays exactly flat, proving the movement rule, not the repeated
querying, earns the gain.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_experiment
from repro.db.database import ImageDatabase
from repro.db.feedback import FeedbackSession, Rocchio
from repro.eval.datasets import CORPUS_CLASS_NAMES, make_class_image, make_corpus
from repro.eval.harness import ascii_table
from repro.features.histogram import HSVHistogram
from repro.features.pipeline import FeatureSchema

_PER_CLASS = 12
_K = 10
_ROUNDS = 3


def _build_db():
    schema = FeatureSchema([HSVHistogram((18, 3, 3), working_size=32)])
    db = ImageDatabase(schema)
    for image, label in make_corpus(_PER_CLASS, size=32, seed=200):
        db.add_image(image, label=label)
    return db


def _precision(results, label, k):
    labels = [r.record.label for r in results[:k]]
    return labels.count(label) / float(k)


def _ambiguous_queries(db):
    """One blended query per target class: 50% target, 50% decoy."""
    extractor = db.schema.get(db.default_feature)
    rng = np.random.default_rng(999)
    signatures = {
        label: extractor.extract(make_class_image(label, rng, size=32))
        for label in CORPUS_CLASS_NAMES
    }
    queries = []
    for position, label in enumerate(CORPUS_CLASS_NAMES):
        decoy = CORPUS_CLASS_NAMES[(position + 1) % len(CORPUS_CLASS_NAMES)]
        queries.append((label, 0.5 * (signatures[label] + signatures[decoy])))
    return queries


def _run_sessions(db, rule):
    """Per-round mean precision@k across one ambiguous query per class."""
    per_round = np.zeros(_ROUNDS + 1)
    for label, query in _ambiguous_queries(db):
        session = FeedbackSession(db, query, rule=rule)
        results = session.search(_K)
        per_round[0] += _precision(results, label, _K)
        for round_number in range(1, _ROUNDS + 1):
            session.mark_relevant(
                r.image_id for r in results if r.record.label == label
            )
            session.mark_non_relevant(
                r.image_id for r in results if r.record.label != label
            )
            results = session.search(_K)
            per_round[round_number] += _precision(results, label, _K)
    return per_round / len(CORPUS_CLASS_NAMES)


def test_f9_feedback_table():
    db = _build_db()
    rocchio = _run_sessions(db, Rocchio(alpha=1.0, beta=0.75, gamma=0.25))
    control = _run_sessions(db, Rocchio(alpha=1.0, beta=0.0, gamma=0.0))

    rows = [
        ["rocchio(1, .75, .25)"] + [float(p) for p in rocchio],
        ["control (no movement)"] + [float(p) for p in control],
    ]
    print_experiment(
        ascii_table(
            ["rule", "round 0", "round 1", "round 2", "round 3"],
            rows,
            title=f"F9: relevance feedback from ambiguous queries - mean "
            f"precision@{_K}, {len(CORPUS_CLASS_NAMES)} target classes x "
            f"{_PER_CLASS} images/class",
        )
    )

    # Shape checks: movement recovers a real gap; the control cannot
    # change; the first round carries the largest single-round gain.
    assert np.allclose(control, control[0])
    assert rocchio[1] >= rocchio[0] + 0.1
    assert rocchio[-1] >= rocchio[0] + 0.1
    gains = np.diff(rocchio)
    assert gains[0] >= max(gains[1:]) - 1e-9
