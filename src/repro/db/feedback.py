"""Relevance feedback: Rocchio query refinement over feature vectors.

A single query-by-example round rarely expresses what the user meant —
"more like these two, less like that one" does.  Relevance feedback
closes that loop: the user marks results as relevant / non-relevant and
the query *vector* is moved toward the relevant centroid and away from
the non-relevant one (Rocchio's rule, imported into image retrieval by
the MARS system as "query-point movement"):

    ``q' = alpha * q + beta * mean(relevant) - gamma * mean(non-relevant)``

The moved query lives in the same feature space, so the existing indexes
answer the refined query at full speed — feedback costs one extra k-NN
per round, nothing else.  Experiment F9 measures precision@k per round
under a simulated user who judges by class label.

Two pieces:

:class:`Rocchio`
    The pure vector update rule (stateless, testable in isolation).
:class:`FeedbackSession`
    Drives rounds against an :class:`~repro.db.database.ImageDatabase`:
    holds the evolving query vector, collects judgments, re-queries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.db.database import ImageDatabase
from repro.db.query import RetrievalResult
from repro.errors import QueryError
from repro.image.core import Image

__all__ = ["Rocchio", "FeedbackSession"]


class Rocchio:
    """The Rocchio query-movement rule.

    Parameters
    ----------
    alpha:
        Weight of the original query (anchor; default 1.0).
    beta:
        Pull toward the mean of relevant examples (default 0.75).
    gamma:
        Push away from the mean of non-relevant examples (default 0.25).
        Kept smaller than ``beta`` by convention: negative evidence is
        noisier than positive evidence.

    Histogram-type signatures are non-negative by construction, and the
    subtraction step can take components below zero; ``clip_negative``
    (default True) clamps the refined vector at zero so it stays a valid
    point of the feature space.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 0.75,
        gamma: float = 0.25,
        *,
        clip_negative: bool = True,
    ) -> None:
        if alpha < 0.0 or beta < 0.0 or gamma < 0.0:
            raise QueryError(
                f"alpha, beta, gamma must be non-negative; got "
                f"({alpha}, {beta}, {gamma})"
            )
        if alpha == 0.0 and beta == 0.0:
            raise QueryError("alpha and beta cannot both be zero")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.clip_negative = clip_negative

    def refine(
        self,
        query: np.ndarray,
        relevant: Sequence[np.ndarray] = (),
        non_relevant: Sequence[np.ndarray] = (),
    ) -> np.ndarray:
        """One movement step; with no judgments the query is unchanged."""
        query = np.asarray(query, dtype=np.float64).ravel()
        refined = self.alpha * query
        if len(relevant) > 0:
            refined = refined + self.beta * np.mean(
                np.asarray(relevant, dtype=np.float64), axis=0
            )
        if len(non_relevant) > 0:
            refined = refined - self.gamma * np.mean(
                np.asarray(non_relevant, dtype=np.float64), axis=0
            )
        # Keep the query on the original scale so distances stay
        # comparable across rounds.
        weight = self.alpha + (self.beta if len(relevant) else 0.0)
        if weight > 0.0:
            refined = refined / weight
        if self.clip_negative:
            refined = np.clip(refined, 0.0, None)
        return refined

    def __repr__(self) -> str:
        return (
            f"Rocchio(alpha={self.alpha}, beta={self.beta}, gamma={self.gamma})"
        )


class FeedbackSession:
    """An interactive retrieval session with query-point movement.

    Parameters
    ----------
    db:
        The database to search.
    query:
        The starting example — an :class:`~repro.image.Image` or a
        precomputed vector of the right dimensionality.
    feature:
        Which feature space the session runs in (default: the schema's
        first feature).
    rule:
        The movement rule (default :class:`Rocchio` with standard
        weights).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.image import synth
    >>> rng = np.random.default_rng(0)
    >>> db = ImageDatabase()
    >>> ids = [db.add_image(synth.compose_scene(64, 64, rng)) for _ in range(12)]
    >>> session = FeedbackSession(db, synth.compose_scene(64, 64, rng))
    >>> first = session.search(k=5)
    >>> session.mark_relevant([first[0].image_id])
    >>> second = session.search(k=5)  # query has moved
    >>> session.rounds
    1
    """

    def __init__(
        self,
        db: ImageDatabase,
        query: Image | np.ndarray,
        *,
        feature: str | None = None,
        rule: Rocchio | None = None,
    ) -> None:
        if len(db) == 0:
            raise QueryError("cannot start a feedback session on an empty database")
        self._db = db
        self._feature = feature or db.default_feature
        self._query = db.extract_query_vector(query, self._feature)
        self._initial_query = self._query.copy()
        self._rule = rule or Rocchio()
        self._relevant: set[int] = set()
        self._non_relevant: set[int] = set()
        self._rounds = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def feature(self) -> str:
        """The feature space the session searches."""
        return self._feature

    @property
    def query_vector(self) -> np.ndarray:
        """The current (possibly moved) query vector."""
        return self._query.copy()

    @property
    def rounds(self) -> int:
        """Completed feedback rounds (judgment + movement)."""
        return self._rounds

    @property
    def judged(self) -> tuple[frozenset[int], frozenset[int]]:
        """All judgments so far: ``(relevant ids, non-relevant ids)``."""
        return frozenset(self._relevant), frozenset(self._non_relevant)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def search(self, k: int = 10) -> list[RetrievalResult]:
        """Current-query k-NN (judgments applied lazily beforehand)."""
        self._apply_pending()
        return self._db.query(self._query, k, feature=self._feature)

    def mark_relevant(self, image_ids: Iterable[int]) -> None:
        """Record positive judgments (effective at the next search)."""
        ids = self._validated(image_ids)
        self._non_relevant -= ids
        self._relevant |= ids
        self._pending = True

    def mark_non_relevant(self, image_ids: Iterable[int]) -> None:
        """Record negative judgments (effective at the next search)."""
        ids = self._validated(image_ids)
        self._relevant -= ids
        self._non_relevant |= ids
        self._pending = True

    def reset(self) -> None:
        """Forget all judgments and return to the original query."""
        self._query = self._initial_query.copy()
        self._relevant.clear()
        self._non_relevant.clear()
        self._rounds = 0
        self._pending = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    _pending = False

    def _validated(self, image_ids: Iterable[int]) -> set[int]:
        ids = {int(image_id) for image_id in image_ids}
        for image_id in ids:
            self._db.catalog.get(image_id)  # raises on unknown id
        return ids

    def _apply_pending(self) -> None:
        if not self._pending:
            return
        relevant, non_relevant = (
            self._db.vectors_of(self._feature, sorted(ids))
            for ids in (self._relevant, self._non_relevant)
        )
        self._query = self._rule.refine(self._initial_query, relevant, non_relevant)
        self._rounds += 1
        self._pending = False

    def __repr__(self) -> str:
        return (
            f"FeedbackSession(feature={self._feature!r}, rounds={self._rounds}, "
            f"relevant={len(self._relevant)}, non_relevant={len(self._non_relevant)})"
        )
