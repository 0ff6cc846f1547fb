"""LRU result cache with generation-stamped lazy invalidation.

Interactive image search traffic is heavily repetitive — popular query
images, retried requests, paging over the same example — so the serving
layer keeps a bounded LRU map from *query identity* to the finished
result list.

A cache key is ``(kind, feature, parameter, digest)`` where ``kind`` is
``'knn'`` or ``'range'``, the parameter is ``k`` or the radius, and the
digest hashes the query signature's bytes after rounding to
:data:`QUANTIZE_DECIMALS` (12) decimals.  Quantization exists to merge
float noise far below any extractor's precision (~1e-12 — two
signatures that close produce the same ranking in any real corpus).
Entries hold fully materialized :class:`~repro.db.query.RetrievalResult`
lists, which are frozen dataclasses over an immutable catalog record —
safe to hand to many readers.

Mutable databases: generation stamps
------------------------------------
The database is allowed to mutate while the service runs (see
``docs/mutability.md``).  Instead of flushing the cache on every
mutation, each entry is stamped with the **generation** the database
was at when the result was computed
(:attr:`~repro.db.database.ImageDatabase.generation`).  A lookup passes
the *current* generation; a stamped entry from an older generation is
treated as a miss, evicted on the spot, and counted in
:attr:`ResultCache.invalidations` — invalidation is lazy and per-entry,
never a global flush, so untouched hot entries keep serving the moment
the database stops changing.

Check-on-hit revalidation
-------------------------
A generation mismatch does not always mean the cached answer changed:
a k-NN entry is provably still correct when every item inserted since
it was computed lands *strictly after* its kth result under the engine
ordering ``(distance, id)`` and none of its result ids was removed (a
range entry: no insert within the closed query ball, no result
removed).  :meth:`ResultCache.get` therefore takes a ``revalidator``
callback: on a stale stamp the cache hands the entry out for
inspection instead of evicting it, and a confirmed entry is re-stamped
at the current generation and served as a hit — counted in
:attr:`ResultCache.revalidations`, separately from
:attr:`ResultCache.invalidations` (entries that genuinely changed).
The proof is :func:`entry_still_valid`, which admission feeds from
:class:`MutationDeltaLog`, a bounded per-generation record of exactly
which vectors each mutation inserted and which ids it removed.  A
delta outside the retained window (or recorded before the log was
attached) makes it return False — revalidation degrades to plain
invalidation, never to a stale answer.

Hit/miss/invalidation/revalidation counters are monotonic and
thread-safe; read them together via :meth:`ResultCache.counters` (one
locked snapshot — the individual properties are each consistent but
can tear *across* properties mid-update).  The scheduler folds the
snapshot into its :class:`~repro.serve.stats.ServiceStats`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.db.query import RetrievalResult
from repro.errors import ServeError
from repro.metrics.base import Metric

__all__ = ["CacheCounters", "MutationDeltaLog", "ResultCache", "entry_still_valid"]

#: Decimals kept when digesting query vectors into cache keys.
QUANTIZE_DECIMALS = 12

#: Mutations whose deltas are retained.
DELTA_WINDOW = 64

#: Cache keys: (kind, feature, parameter, digest).
CacheKey = tuple[str, str, int | float, str]

#: Revalidation callback: (stale entry's stamp, its results) -> still valid?
Revalidator = Callable[[int, list[RetrievalResult]], bool]

#: One mutation's effect: ``(inserted ids, {feature: (m, d) rows})`` for
#: an add, ``(removed ids, None)`` for a remove.
MutationDelta = tuple[tuple[int, ...], "dict[str, np.ndarray] | None"]


class CacheCounters(NamedTuple):
    """One consistent snapshot of the cache's lookup counters.

    Taken under the cache lock, so ``hits + misses`` always equals the
    number of lookups even while other threads are counting —
    the guarantee the individual properties cannot give across
    separate reads.
    """

    hits: int
    misses: int
    invalidations: int
    revalidations: int

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MutationDeltaLog:
    """Bounded per-generation record of what each mutation changed.

    Maps the database **generation after the mutation applied** to the
    :data:`MutationDelta` that produced it.  Only the newest
    :data:`DELTA_WINDOW` mutations are retained; :meth:`between`
    returns ``None`` as soon as any generation in the requested range
    has been dropped (or was never recorded), which callers must treat
    as "cannot prove validity".

    Thread-safe: the scheduler's worker records while caller threads
    read during cache lookups.
    """

    def __init__(self) -> None:
        self._log: OrderedDict[int, MutationDelta] = OrderedDict()
        self._lock = threading.Lock()

    def record(
        self,
        generation: int,
        ids: Sequence[int],
        matrices: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Record the mutation that produced ``generation``: an insert
        of ``matrices`` (``{feature: (m, d) rows}``) under ``ids``, or,
        without ``matrices``, a removal of ``ids``.

        The rows are copied: the log must outlive the caller's batch
        buffers, and revalidation reads it from other threads.
        """
        if matrices is not None:
            matrices = {
                feature: np.array(rows, dtype=np.float64, copy=True)
                for feature, rows in matrices.items()
            }
        generation = int(generation)
        with self._lock:
            self._log[generation] = (tuple(int(i) for i in ids), matrices)
            self._log.move_to_end(generation)
            while len(self._log) > DELTA_WINDOW:
                self._log.popitem(last=False)

    def between(self, old: int, new: int) -> list[MutationDelta] | None:
        """Every delta from ``old`` (exclusive) to ``new`` (inclusive).

        ``None`` when the range cannot be reconstructed — a
        non-advancing range, or any generation missing from the
        retained window.  The caller must then fall back to
        invalidation.
        """
        if old >= new:
            return None
        with self._lock:
            deltas: list[MutationDelta] = []
            for generation in range(old + 1, new + 1):
                delta = self._log.get(generation)
                if delta is None:
                    return None
                deltas.append(delta)
            return deltas


def entry_still_valid(
    deltas: list[MutationDelta] | None,
    feature: str,
    metric: Metric,
    kind: str,
    parameter: int | float,
    vector: np.ndarray,
    results: list[RetrievalResult],
) -> bool:
    """Prove a stale-stamped cache entry still equals a fresh query.

    ``deltas`` is the mutation delta log from the entry's stamp to the
    current one (``None``: part of the range left the
    bounded window).  A k-NN entry survives iff no cached result id was
    removed and every inserted item orders *strictly after* the kth
    result under the engine's total ``(distance, id)`` ranking — an
    insert tying the kth distance with a larger id stays outside the
    top-k, exactly as a fresh query would place it.  A range entry
    survives iff no result id was removed and no insert landed inside
    the closed ball (``distance <= radius`` would be reported).
    Removals of items *outside* the cached result never matter: they
    ranked after the kth (or outside the ball), so dropping them cannot
    change it.  Anything unprovable — deltas past the bounded window, a
    short k-NN list that an insert could extend — returns False and the
    entry is invalidated; revalidation can only ever upgrade a miss to
    a hit that matches a fresh query bit for bit.

    Distances are computed with the ``feature``'s own ``metric`` over
    that feature's inserted rows — the same float64 rows the engine
    indexed, so the comparison floats are
    the ones a fresh query would rank by.  Runs on the caller's thread
    against the (locked) delta log; the engine itself is never touched.
    """
    if deltas is None:
        return False
    removed: set[int] = set()
    inserted: list[tuple[tuple[int, ...], np.ndarray]] = []
    for ids, matrices in deltas:
        if matrices is None:
            removed.update(ids)
        elif ids:
            inserted.append((ids, matrices[feature]))
    if removed and any(result.image_id in removed for result in results):
        return False
    if not inserted:
        return True
    if kind == "knn":
        if len(results) < int(parameter):
            # Fewer hits than k means the corpus was smaller than k:
            # any insert could extend the list.  (An empty corpus
            # cannot be queried, so results is never empty here.)
            return False
        kth = results[-1]
        kth_key = (kth.distance, kth.image_id)
        for ids, vectors in inserted:
            distances = metric.distance_batch(vector, vectors)
            for image_id, distance in zip(ids, distances):
                if (float(distance), image_id) < kth_key:
                    return False
        return True
    radius = float(parameter)
    for _ids, vectors in inserted:
        if np.any(metric.distance_batch(vector, vectors) <= radius):
            return False
    return True


class ResultCache:
    """Bounded LRU map from query identity to retrieval results.

    Parameters
    ----------
    capacity:
        Maximum number of cached result lists; ``0`` disables caching
        (every lookup misses, nothing is stored).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ServeError(f"cache capacity must be >= 0; got {capacity}")
        self._capacity = int(capacity)
        self._entries: OrderedDict[
            CacheKey, tuple[int, list[RetrievalResult]]
        ] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._revalidations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of entries (0 = disabled)."""
        return self._capacity

    @property
    def enabled(self) -> bool:
        """False when constructed with capacity 0."""
        return self._capacity > 0

    @property
    def hits(self) -> int:
        """Lookups answered from the cache since construction."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that fell through to the engine since construction
        (stale-generation evictions included — they miss too)."""
        return self._misses

    @property
    def invalidations(self) -> int:
        """Entries evicted because their generation stamp was stale.

        Every invalidation is also counted as a miss; this counter is
        how the parity suite proves no stale result was ever served.
        """
        return self._invalidations

    @property
    def revalidations(self) -> int:
        """Stale-stamped entries a revalidator proved still valid.

        Each one was re-stamped at the current generation and served;
        every revalidation is also counted as a hit.
        """
        return self._revalidations

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` (0.0 before any lookup)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def counters(self) -> CacheCounters:
        """All lookup counters in one locked snapshot.

        This is what ``/stats`` and ``/metrics`` read: the individual
        properties are each atomic, but reading them one after another
        can interleave with a lookup and report figures that never
        coexisted (e.g. ``hits + misses`` short of the lookup count).
        """
        with self._lock:
            return CacheCounters(
                self._hits, self._misses, self._invalidations, self._revalidations
            )

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key(
        self, kind: str, feature: str, parameter: int | float, vector: np.ndarray
    ) -> CacheKey:
        """The cache key identifying one query.

        The vector digest is position-dependent (BLAKE2b over the
        rounded float64 bytes); ``+ 0.0`` folds ``-0.0`` into ``0.0`` so
        the two signs of zero — equal to every metric — share a key.
        ``kind`` and ``parameter`` are part of the key tuple itself, so
        the same vector under k-NN and range (even with ``k == radius``)
        can never collide.
        """
        vector = np.round(
            np.ascontiguousarray(vector, dtype=np.float64), QUANTIZE_DECIMALS
        ) + 0.0
        digest = hashlib.blake2b(vector.tobytes(), digest_size=16).hexdigest()
        return (kind, feature, parameter, digest)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(
        self, key: CacheKey, generation: int, revalidator: Revalidator
    ) -> list[RetrievalResult] | None:
        """The cached results for ``key`` (a fresh list), or ``None``.

        ``generation`` is the caller's *current* data version (the
        database's generation).  An entry computed
        under a different (``!=``) generation is stale.

        ``revalidator`` gets a chance to save a stale entry: it is
        called — outside the cache lock, so it may compute distances —
        with the entry's stored stamp and its results, and must return
        True only when the results provably equal a fresh query's.  A
        confirmed entry is re-stamped at ``generation``, counted in
        :attr:`revalidations`, and served as a hit; a rejected one is
        evicted, counted in :attr:`invalidations`, and the lookup
        misses.  If the entry was replaced or evicted while the
        callback ran, the lookup is a plain miss — the callback's
        verdict applied to a snapshot that is no longer the entry.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            stored_generation, results = entry
            if stored_generation == generation:
                self._entries.move_to_end(key)
                self._hits += 1
                return list(results)
            snapshot = list(results)
        valid = revalidator(stored_generation, snapshot)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != stored_generation:
                self._misses += 1
                return None
            if not valid:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries[key] = (generation, entry[1])
            self._entries.move_to_end(key)
            self._hits += 1
            self._revalidations += 1
            return list(entry[1])

    def put(
        self,
        key: CacheKey,
        results: Sequence[RetrievalResult],
        generation: int,
    ) -> None:
        """Store ``results`` under ``key``, evicting the LRU tail.

        ``generation`` stamps the entry with the data version it was
        computed under.
        """
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = (generation, list(results))
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters keep running)."""
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self._entries)}/{self._capacity}, "
            f"hits={self._hits}, misses={self._misses}, "
            f"invalidations={self._invalidations}, "
            f"revalidations={self._revalidations})"
        )
