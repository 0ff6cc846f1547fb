"""id → row lookups over an int64 id column, without a Python object per id.

A ``dict[int, int]`` over 200 000 ids costs ~28 MB (the table plus one
``int`` object per key and per value); the same map as arrays costs the
8-byte id column that has to exist anyway plus, only when the ids are
*not* in ascending row order, one 8-byte sorter.  Lookups are binary
searches (``np.searchsorted``), vectorised over the ids asked for.

The row of an id is its position in the column — in an index's core,
the structure's stored row; in its pending buffer (a subclass), the
row of the buffer's block.  :class:`LiveMask` is the other per-id
array: one flag per id, indexed by the id itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["IdMap", "LiveMask", "reserve"]

_MIN_CAPACITY = 8


class IdMap:
    """A growable int64 id column with id → row lookup.

    ``IdMap(ids)`` takes ownership of an int64 array (no copy).
    :meth:`extend` is amortised O(1) per id while new ids keep arriving
    in ascending order — the common case wherever ids are allocated
    sequentially; an out-of-order arrival drops the sorter, and the
    next lookup rebuilds it with one stable sort (near-linear on the
    almost-sorted columns this produces).
    """

    __slots__ = ("_ids", "_n", "_ascending", "_sorter")

    def __init__(self, ids: np.ndarray | None = None) -> None:
        self._ids = np.empty(0, dtype=np.int64) if ids is None else ids
        self._n = int(self._ids.shape[0])
        self._ascending = _is_ascending(self._ids)
        #: Stable argsort of the column, kept only while the ids are not
        #: in ascending row order; ``None`` = not built (yet).
        self._sorter: np.ndarray | None = None

    def __len__(self) -> int:
        return self._n

    @property
    def ids(self) -> np.ndarray:
        """The id column in row order (a view; do not write to it)."""
        return self._ids[: self._n]

    def extend(self, ids) -> None:
        """Append rows holding ``ids``."""
        new = np.asarray(ids, dtype=np.int64)
        if not new.shape[0]:
            return
        n, total = self._n, self._n + new.shape[0]
        sorter = self._sorter
        # Do the new ids continue the sorted order?  Without a sorter
        # on a non-ascending column the answer is "rebuild it anyway".
        in_order = (self._ascending or sorter is not None) and _is_ascending(new)
        if in_order and n:
            largest = self._ids[n - 1 if self._ascending else sorter[n - 1]]
            in_order = bool(new[0] >= largest)
        self._ids = reserve(self._ids, n, total)
        self._ids[n:total] = new
        if not in_order:
            self._ascending = False
            self._sorter = None
        elif sorter is not None:
            self._sorter = sorter = reserve(sorter, n, total)
            sorter[n:total] = np.arange(n, total)
        self._n = total

    def rows(self, ids) -> np.ndarray:
        """The row of each id (its latest one), ``-1`` where unknown."""
        wanted = np.asarray(ids, dtype=np.int64)
        if self._n == 0:
            return np.full(wanted.shape, -1, dtype=np.intp)
        column = self._ids[: self._n]
        if self._ascending:
            at = rows = np.searchsorted(column, wanted, side="right") - 1
        else:
            sorter = self._sorted()
            at = np.searchsorted(column, wanted, side="right", sorter=sorter) - 1
            rows = sorter[at]
        # at == -1 (smaller than every id) indexed the last row above.
        return np.where((at >= 0) & (column[rows] == wanted), rows, -1)

    def row(self, item_id: int) -> int:
        """The row of one id, ``-1`` when unknown."""
        if self._n == 0:
            return -1
        column = self._ids[: self._n]
        if self._ascending:
            at = row = column.searchsorted(item_id, "right") - 1
        else:
            sorter = self._sorted()
            at = column.searchsorted(item_id, "right", sorter) - 1
            row = sorter[at]
        return int(row) if at >= 0 and column[row] == item_id else -1

    def _sorted(self) -> np.ndarray:
        """The stable argsort of the live column (built on demand)."""
        if self._sorter is None:
            self._sorter = np.argsort(self._ids[: self._n], kind="stable")
        return self._sorter[: self._n]


class LiveMask:
    """One flag per id, set while the id is live: the one live set a
    database's catalog hands to every index (``docs/mutability.md``).
    One bool array indexed by the id itself, so a hot loop checks
    ``bits[item_id]``: ids ``0 .. len - 1`` at the front, negative ids
    (numpy indexes them from the end) at the back.  The length is the id
    high-water mark: every id below it was handed out once."""

    __slots__ = ("_bits", "_n", "_low")

    def __init__(self) -> None:
        self._bits = np.zeros(8, dtype=bool)  # only covered ids are ever set
        self._n = self._low = 0  # the covered ids are _low .. _n - 1

    def __len__(self) -> int:
        return self._n

    @property
    def bits(self) -> np.ndarray:
        """The flags, indexed by id (valid until the mask next grows)."""
        return self._bits

    def grow(self, top: int, bottom: int = 0) -> None:
        """Cover the ids from ``bottom`` up to ``top``; new ids start clear."""
        top, bottom = max(top, self._n), min(bottom, self._low)
        old, size = self._bits, self._bits.shape[0]
        if top - bottom > size:  # doubling: O(1) copied per id covered
            self._bits = np.zeros(max(top - bottom, 2 * size), dtype=bool)
            self._bits[: self._n] = old[: self._n]
            self._bits[self._bits.shape[0] + self._low :] = old[size + self._low :]
        self._n, self._low = top, bottom

    def set(self, ids, live: bool = True) -> None:
        """Set (or with ``live=False`` clear) the flags of covered ``ids``."""
        self._bits[ids] = live

    def of(self, ids) -> np.ndarray:
        """Each id's flag; ``False`` for ids the mask does not cover."""
        ids = np.asarray(ids, dtype=np.int64)
        covered = (ids >= self._low) & (ids < self._n)
        if covered.all():
            return self._bits[ids]
        covered[covered] = self._bits[ids[covered]]
        return covered


def _is_ascending(ids: np.ndarray) -> bool:
    return bool(np.all(ids[1:] >= ids[:-1]))


def reserve(array: np.ndarray, n: int, total: int) -> np.ndarray:
    """``array`` with room for ``total`` entries, its first ``n`` kept
    (capacity doubles, so a stream of appends copies O(1) per entry)."""
    if total <= array.shape[0]:
        return array
    grown = np.empty(
        max(total, 2 * array.shape[0], _MIN_CAPACITY), dtype=array.dtype
    )
    grown[:n] = array[:n]
    return grown
