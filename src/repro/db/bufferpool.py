"""LRU buffer pool with exact hit/miss accounting.

The 1994 cost model prices a query by how many feature-vector *pages* it
touches; the buffer pool decides how many of those touches reach the disk.
This implementation is deliberately classical: fixed capacity in pages,
least-recently-used eviction, and counters (:attr:`hits`, :attr:`misses`,
:attr:`evictions`) that experiment F6 sweeps against capacity.  It is a
read cache only: the feature store writes its tail page around it and
never caches a page that can still change.  Pages are opaque objects
fetched by a callback.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.errors import StoreError

__all__ = ["BufferPool"]

FetchFn = Callable[[int], Any]


class BufferPool:
    """Fixed-capacity LRU cache of pages.

    Parameters
    ----------
    capacity:
        Maximum number of resident pages (>= 1).
    fetch:
        Callback loading a page by id on a miss.
    """

    def __init__(self, capacity: int, fetch: FetchFn) -> None:
        if capacity < 1:
            raise StoreError(f"buffer pool capacity must be >= 1; got {capacity}")
        self._capacity = capacity
        self._fetch = fetch
        self._pages: "OrderedDict[int, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum resident pages."""
        return self._capacity

    @property
    def hits(self) -> int:
        """Accesses served from the pool."""
        return self._hits

    @property
    def misses(self) -> int:
        """Accesses that invoked the fetch callback."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Pages pushed out by capacity pressure."""
        return self._evictions

    @property
    def resident(self) -> int:
        """Pages currently cached."""
        return len(self._pages)

    def hit_ratio(self) -> float:
        """hits / (hits + misses); 0.0 before any access."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters (contents are kept)."""
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def clear(self) -> None:
        """Drop every resident page (the counters are kept): the pages
        belong to a file the owner no longer reads."""
        self._pages.clear()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def get(self, page_id: int) -> Any:
        """Return the page, fetching on a miss and evicting LRU if full."""
        if page_id in self._pages:
            self._hits += 1
            self._pages.move_to_end(page_id)
            return self._pages[page_id]

        self._misses += 1
        page = self._fetch(page_id)
        while len(self._pages) >= self._capacity:
            self._pages.popitem(last=False)
            self._evictions += 1
        self._pages[page_id] = page
        return page

    def __repr__(self) -> str:
        return (
            f"BufferPool(capacity={self._capacity}, resident={self.resident}, "
            f"hits={self._hits}, misses={self._misses})"
        )
