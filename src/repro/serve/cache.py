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
the database stops changing (one stamped *newer* than the lookup is a
plain miss, and stays).

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
The proof is :func:`entry_still_valid` — one id comparison and one
kernel call — fed from :class:`MutationDeltaLog`, columns of the rows
each mutation inserted and the ids it removed, bounded in rows.  A
range the log does not cover makes it return False — revalidation
degrades to plain invalidation, never to a stale answer.

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
from numbers import Integral
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.db.query import RetrievalResult
from repro.errors import ServeError
from repro.metrics.base import Metric

__all__ = ["CacheCounters", "MutationDeltaLog", "ResultCache", "entry_still_valid"]

#: Decimals kept when digesting query vectors into cache keys.
QUANTIZE_DECIMALS = 12

#: Inserted rows plus removed ids the delta log keeps (the newest whole
#: mutations): a proof is one kernel call over at most this many rows.
DELTA_ROWS = 4096

#: Cache keys: (kind, feature, parameter, digest).
CacheKey = tuple[str, str, int | float, str]

#: Revalidation callback: (stale entry's stamp, its results) -> still valid?
Revalidator = Callable[[int, list[RetrievalResult]], bool]


class MutationDelta(NamedTuple):
    """What the mutations between two generations changed."""

    removed: np.ndarray  # ids
    inserted_ids: np.ndarray
    inserted: dict[str, np.ndarray]  # {feature: the inserted ids' rows}


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


class _Rows:
    """Parallel columns, ``gen`` ascending.  Appends write past the live
    rows (a full store moves them to fresh arrays) and trimming only
    moves ``start``, so a slice once read is never written again."""

    def __init__(self) -> None:
        self.columns = {"gen": np.empty(0, np.int64), "id": np.empty(0, np.int64)}
        self.start = self.end = 0

    def __len__(self) -> int:
        return self.end - self.start

    def append(self, rows: Mapping[str, np.ndarray]) -> None:
        m = len(rows["gen"])
        if self.end + m > len(self.columns["gen"]) or rows.keys() - self.columns:
            # The log trims before it appends: live + m <= DELTA_ROWS.
            fresh, live = {}, len(self)
            for name, values in rows.items():
                shape = (2 * DELTA_ROWS, *values.shape[1:])
                fresh[name] = np.empty(shape, values.dtype)
                if name in self.columns:
                    fresh[name][:live] = self.columns[name][self.start : self.end]
            self.columns, self.start, self.end = fresh, 0, live
        for name, values in rows.items():
            self.columns[name][self.end : self.end + m] = values
        self.end += m

    def gens(self) -> np.ndarray:
        return self.columns["gen"][self.start : self.end]

    def between(self, old: int, new: int) -> dict[str, np.ndarray]:
        """Every column's rows with ``old < gen <= new``."""
        gens = self.gens()
        lo = self.start + gens.searchsorted(old, side="right")
        hi = self.start + gens.searchsorted(new, side="right")
        return {name: column[lo:hi] for name, column in self.columns.items()}


class MutationDeltaLog:
    """Bounded record of what each mutation changed, as columns.

    Inserts are one row per item (``gen``, ``id``, a column per
    feature), removes one row per id (``gen``, ``id``); ``gen`` is the
    database **generation after the mutation applied**.  The log covers
    every mutation in generations ``(since, last]``: a generation
    recorded out of turn (a failed apply bumps it without a record; a
    mutation over the bound is not kept) restarts it, and only the
    newest whole mutations with at most :data:`DELTA_ROWS` rows stay.
    Thread-safe: the worker records while lookups read.
    """

    def __init__(self) -> None:
        self._inserts, self._removes = _Rows(), _Rows()
        self._since = self._last = 0
        self._lock = threading.Lock()

    def record(
        self,
        generation: int,
        ids: Sequence[int],
        matrices: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Record the mutation that produced ``generation``: an insert
        of ``matrices`` (``{feature: (m, d) rows}``) under ``ids``, or,
        without ``matrices``, a removal of ``ids``.  The rows are copied.
        """
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if len(ids) > DELTA_ROWS:
            return  # not kept: the next record finds the gap and restarts
        rows = {"gen": np.full(len(ids), generation, dtype=np.int64), "id": ids}
        rows.update((f, np.asarray(r, np.float64)) for f, r in (matrices or {}).items())
        tables = (self._inserts, self._removes)
        with self._lock:
            if generation != self._last + 1:
                # Nothing older can bridge the gap.
                self._since = generation - 1
                for table in tables:
                    table.start = table.end
            self._last = generation
            while len(self._inserts) + len(self._removes) + len(ids) > DELTA_ROWS:
                # Drop the oldest whole mutation.
                self._since = min(int(t.gens()[0]) for t in tables if len(t))
                for table in tables:
                    table.start += int(table.gens().searchsorted(self._since, "right"))
            (self._removes if matrices is None else self._inserts).append(rows)

    def between(self, old: int, new: int) -> MutationDelta | None:
        """Everything the mutations from ``old`` (exclusive) to ``new``
        (inclusive) changed; ``None`` when the range does not advance
        or the log does not cover it (the caller must then invalidate).
        """
        with self._lock:
            if not self._since <= old < new <= self._last:
                return None
            inserted = self._inserts.between(old, new)
            removed = self._removes.between(old, new)["id"]
        del inserted["gen"]
        return MutationDelta(removed, inserted.pop("id"), inserted)


def entry_still_valid(
    delta: MutationDelta | None,
    feature: str,
    metric: Metric,
    kind: str,
    parameter: int | float,
    vector: np.ndarray,
    results: list[RetrievalResult],
) -> bool:
    """Prove a stale-stamped cache entry still equals a fresh query.

    ``delta`` is what changed from the entry's stamp to the current
    generation (``None``: the log cannot reconstruct the range).  A
    k-NN entry survives iff no cached result id was removed and every
    inserted item orders *strictly after* the kth result under the
    engine's total ``(distance, id)`` ranking — an insert tying the
    kth distance with a larger id stays outside the top-k, exactly as
    a fresh query would place it.  A range entry survives iff no
    result id was removed and no insert landed inside the closed ball
    (``distance <= radius`` would be reported).  Removals of items
    *outside* the cached result never matter: they ranked after the
    kth (or outside the ball), so dropping them cannot change it.
    Anything unprovable — a range past the log, a short k-NN list that
    an insert could extend — returns False and the entry is
    invalidated; revalidation can only ever upgrade a miss to a hit
    that matches a fresh query bit for bit.  One broadcast comparison
    of ids and one ``metric.distance_batch`` call over the ``feature``'s
    inserted rows — the float64 rows the engine indexed, so the floats
    are the ones a fresh query ranks by — on the caller's thread.
    """
    if delta is None:
        return False
    if (delta.removed[:, None] == [result.image_id for result in results]).any():
        return False
    if not len(delta.inserted_ids):
        return True
    if kind == "knn" and len(results) < int(parameter):
        # Fewer hits than k means the corpus was smaller than k: any
        # insert could extend the list.  (An empty corpus cannot be
        # queried, so results is never empty here.)
        return False
    distances = metric.distance_batch(vector, delta.inserted[feature])
    if kind == "knn":
        kth = results[-1]
        near = distances <= kth.distance
        if not near.any():
            return True
        # At or inside the kth distance, and ahead of it: a tie goes by id.
        ahead = (distances < kth.distance) | (delta.inserted_ids < kth.image_id)
        return not (near & ahead).any()
    return not (distances <= float(parameter)).any()


class ResultCache:
    """Bounded LRU map from query identity to retrieval results.

    Parameters
    ----------
    capacity:
        Maximum number of cached result lists; ``0`` disables caching
        (every lookup misses, nothing is stored).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if not isinstance(capacity, Integral) or capacity < 0:
            raise ServeError(f"cache capacity must be an integer >= 0; got {capacity}")
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
        database's generation).  An entry computed under an older
        generation is stale; one stamped newer is a plain miss.

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
            if entry is None or entry[0] > generation:
                # Absent, or filled after the caller read its generation:
                # a plain miss, and the newer entry stays.
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
