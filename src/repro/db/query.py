"""Query results, weighted multi-feature combination, and rank fusion.

A single feature rarely captures similarity alone; production CBIR
queries combine evidence.  Two families are implemented:

* **score combination** — per-feature distances are rescaled to
  comparable units (robust median scaling over the candidate pool) and
  averaged under user weights (:func:`combine_feature_distances`);
* **rank fusion** — per-feature rankings are merged positionally, via
  Borda counts (:func:`borda_fuse`) or reciprocal-rank fusion
  (:func:`reciprocal_rank_fuse`), which ignores the distances' scales
  entirely.

Experiment T5 compares both against single features.

:func:`to_retrieval_results` is the shared last hop of every query path
— scalar, batched, single- or multi-feature: index ``Neighbor`` lists
become catalog-enriched :class:`RetrievalResult` lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import QueryError
from repro.db.catalog import ImageRecord
from repro.index.base import check_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.db.catalog import Catalog
    from repro.index.base import Neighbor

__all__ = [
    "RetrievalResult",
    "to_retrieval_results",
    "combine_feature_distances",
    "borda_fuse",
    "reciprocal_rank_fuse",
]


@dataclass(frozen=True)
class RetrievalResult:
    """One ranked answer to a query.

    ``distance`` is in the units of the feature's metric for single-feature
    queries and a unitless combined score for multi-feature queries;
    ``per_feature`` holds the raw per-feature distances when available.
    """

    image_id: int
    distance: float
    record: ImageRecord | None = None
    per_feature: dict[str, float] | None = None

    def __lt__(self, other: "RetrievalResult") -> bool:
        return (self.distance, self.image_id) < (other.distance, other.image_id)


def to_retrieval_results(
    neighbors: Sequence["Neighbor"], catalog: "Catalog"
) -> list[RetrievalResult]:
    """Attach catalog records to raw index results, preserving order."""
    return [
        RetrievalResult(
            image_id=nb.id, distance=nb.distance, record=catalog.get(nb.id)
        )
        for nb in neighbors
    ]


def _median_scale(values: np.ndarray) -> float:
    """Robust positive scale of a distance sample (fallbacks for degenerate)."""
    positive = values[values > 0.0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def combine_feature_distances(
    per_feature: Mapping[str, Mapping[int, float]],
    weights: Mapping[str, float],
) -> dict[int, tuple[float, dict[str, float]]]:
    """Weighted combination of per-feature candidate distances.

    Parameters
    ----------
    per_feature:
        ``feature -> {candidate_id -> distance}``.  Candidates need not
        appear under every feature; missing entries are treated as the
        feature's worst observed distance (absence is weak evidence of
        dissimilarity, not ignorance).
    weights:
        ``feature -> weight`` — non-negative, at least one positive;
        normalized to sum 1 internally.

    Returns
    -------
    dict
        ``candidate_id -> (combined_score, {feature: scaled_distance})``.
        Scores are comparable across candidates of this query only.
    """
    if not per_feature:
        raise QueryError("no per-feature distances supplied")
    unknown = set(weights) - set(per_feature)
    if unknown:
        raise QueryError(f"weights refer to unknown features: {sorted(unknown)}")
    total_weight = float(sum(weights.values()))
    if total_weight <= 0.0 or any(w < 0.0 for w in weights.values()):
        raise QueryError("weights must be non-negative with a positive sum")

    candidates: set[int] = set()
    for distances in per_feature.values():
        candidates.update(distances)
    if not candidates:
        return {}

    scaled: dict[str, dict[int, float]] = {}
    worst: dict[str, float] = {}
    for feature, distances in per_feature.items():
        values = np.array(list(distances.values()), dtype=np.float64)
        scale = _median_scale(values) if values.size else 1.0
        scaled[feature] = {cid: d / scale for cid, d in distances.items()}
        worst[feature] = max(scaled[feature].values(), default=1.0)

    combined: dict[int, tuple[float, dict[str, float]]] = {}
    for candidate in candidates:
        score = 0.0
        detail: dict[str, float] = {}
        for feature, weight in weights.items():
            if weight == 0.0:
                continue
            value = scaled[feature].get(candidate, worst[feature])
            detail[feature] = value
            score += (weight / total_weight) * value
        combined[candidate] = (score, detail)
    return combined


def borda_fuse(rankings: Sequence[Sequence[int]], k: int) -> list[int]:
    """Borda-count fusion of id rankings.

    Each ranking awards ``len(ranking) - position`` points to its members;
    ids missing from a ranking get 0 from it.  Returns the top ``k`` ids by
    total points (ties broken by id for determinism).
    """
    k = check_count("k", k, 1, QueryError)
    if not rankings:
        raise QueryError("at least one ranking is required")
    points: dict[int, float] = {}
    for ranking in rankings:
        length = len(ranking)
        for position, item_id in enumerate(ranking):
            points[item_id] = points.get(item_id, 0.0) + (length - position)
    ordered = sorted(points.items(), key=lambda kv: (-kv[1], kv[0]))
    return [item_id for item_id, _ in ordered[:k]]


def reciprocal_rank_fuse(
    rankings: Sequence[Sequence[int]], k: int, *, smoothing: float = 60.0
) -> list[int]:
    """Reciprocal-rank fusion: score ``sum 1 / (smoothing + rank)``.

    The classic RRF rule; ``smoothing`` dampens the dominance of rank-1
    hits.  Returns the top ``k`` ids.
    """
    k = check_count("k", k, 1, QueryError)
    if smoothing <= 0.0:
        raise QueryError(f"smoothing must be positive; got {smoothing}")
    if not rankings:
        raise QueryError("at least one ranking is required")
    scores: dict[int, float] = {}
    for ranking in rankings:
        for position, item_id in enumerate(ranking):
            scores[item_id] = scores.get(item_id, 0.0) + 1.0 / (smoothing + position + 1)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [item_id for item_id, _ in ordered[:k]]
