"""Image catalog: metadata records keyed by image id.

The catalog is the database's system table: every stored image has one
:class:`ImageRecord` carrying identity, dimensions, an optional class
label (used by the evaluation as relevance ground truth), and free-form
user metadata.  It allocates ids, enforces their uniqueness, supports
label lookups, and round-trips to JSON for persistence alongside the
feature stores.

Storage is columnar: one growable array per field (ids, width, height,
and small integer codes for mode and label), names and ``extra`` kept
only where they differ from the default, and an :class:`ImageRecord`
materialised when one is read.  A record therefore costs ~22 bytes, not
the four Python objects (record, ``__dict__``, ``extra`` dict, name
``str``; ~330 bytes) it used to; ``catalog.json`` is byte for byte what
it was.
Which ids are live is :attr:`Catalog.live`, one flag per id, which the
database hands to every index: the one live set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.db.fsutil import REAL_FS, FileSystem, atomic_write_bytes
from repro.db.idmap import IdMap, LiveMask, reserve
from repro.errors import CatalogError

__all__ = ["ImageRecord", "Catalog"]


@dataclass(frozen=True)
class ImageRecord:
    """Metadata for one stored image.

    Attributes
    ----------
    image_id:
        Unique integer id, allocated by the catalog.
    name:
        Human-readable name (defaults to ``image_<id>``).
    width, height:
        Pixel dimensions at insertion time.
    mode:
        ``'gray'`` or ``'rgb'``.
    label:
        Optional class label; the evaluation treats same-label images as
        relevant to each other.
    extra:
        Free-form JSON-serializable metadata.
    """

    image_id: int
    name: str
    width: int
    height: int
    mode: str
    label: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the JSON round trip."""
        return {
            "image_id": self.image_id,
            "name": self.name,
            "width": self.width,
            "height": self.height,
            "mode": self.mode,
            "label": self.label,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ImageRecord":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                image_id=int(data["image_id"]),
                name=str(data["name"]),
                width=int(data["width"]),
                height=int(data["height"]),
                mode=str(data["mode"]),
                label=data.get("label"),
                extra=dict(data.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CatalogError(f"malformed catalog record: {data!r}") from exc


#: Deleted rows are reclaimed once they outnumber the live ones (and
#: this floor), so a delete is amortised O(1) and dead space stays O(live).
_COMPACT_MIN = 32

#: Fields stored as one array each.
_COLUMNS = {
    "_width": np.int32,
    "_height": np.int32,
    "_mode": np.int16,
    "_label": np.int32,
}


def _default_name(mode: str, image_id: int) -> str:
    """The name an insert without one gets (``add_vectors`` rows are
    ``vector_<id>``, images ``image_<id>``) — stored nowhere."""
    return f"vector_{image_id}" if mode == "vector" else f"image_{image_id}"


class Catalog:
    """In-memory table of image metadata with id allocation.

    Rows sit in insertion order; a delete clears the id's flag in
    :attr:`live` and the dead rows are squeezed out once they outnumber
    the live ones, so insert and delete are amortised O(1) and
    :attr:`ids` is always the live ids in insertion order.  Id lookups
    are binary searches (:class:`~repro.db.idmap.IdMap`), not a dict of
    ``int`` objects.
    """

    def __init__(self) -> None:
        #: Id of every row, dead ones included until compaction.
        self._map = IdMap()
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.empty(0, dtype=dtype))
        self._modes: list[str] = []
        self._labels: list[str | None] = []
        self._mode_codes: dict[str, int] = {}
        self._label_codes: dict[str | None, int] = {}
        #: Only the names that differ from :func:`_default_name`, and
        #: only the non-empty ``extra`` dicts — keyed by id.
        self._names: dict[int, str] = {}
        self._extras: dict[int, dict[str, Any]] = {}
        #: The one live set, shared with the database's indexes.
        self.live = LiveMask()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __contains__(self, image_id: int) -> bool:
        return self._row(image_id) >= 0

    def __iter__(self) -> Iterator[ImageRecord]:
        return self._records(self._live_rows())

    @property
    def ids(self) -> list[int]:
        """All image ids in insertion order."""
        return self.id_array.tolist()

    @property
    def id_array(self) -> np.ndarray:
        """:attr:`ids` as a fresh int64 array (no ``int`` object per id)."""
        return self._map.ids[self._live_rows()]

    @property
    def next_id(self) -> int:
        """The id :meth:`allocate_id` would hand out next (no allocation):
        one past every id ever inserted, or covered by :attr:`live`.

        The serving worker journals an add under the ids starting here
        before it applies the add.
        """
        return len(self.live)

    def allocate_id(self) -> int:
        """Reserve and return the next unused id."""
        image_id = len(self.live)
        self.live.grow(image_id + 1)
        return image_id

    def insert(self, record: ImageRecord) -> None:
        """Add a record; its id must be unused."""
        self.insert_many([record])

    def insert_many(self, records: Iterable[ImageRecord]) -> None:
        """Add records in order; every id must be unused (all or nothing)."""
        records = list(records)
        self._append(
            [record.image_id for record in records],
            [record.width for record in records],
            [record.height for record in records],
            [record.mode for record in records],
            [record.label for record in records],
            [record.name for record in records],
            [record.extra for record in records],
        )

    def insert_rows(
        self,
        ids: Sequence[int],
        *,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
    ) -> None:
        """Bulk insert of image-less rows (mode ``"vector"``, 0 x 0) —
        the ``add_vectors`` path: no :class:`ImageRecord` is ever built.
        Unnamed rows get the default name, unlabelled ones ``None``."""
        self._append(ids, 0, 0, "vector", labels, names, None)

    def get(self, image_id: int) -> ImageRecord:
        """Look up a record by id."""
        return self._record(self._known_row(image_id), int(image_id))

    def delete(self, image_id: int) -> ImageRecord:
        """Remove and return a record."""
        row = self._known_row(image_id)
        record = self._record(row, int(image_id))
        self.live.set(record.image_id, False)
        self._names.pop(record.image_id, None)
        self._extras.pop(record.image_id, None)
        self._live -= 1
        if len(self._map) - self._live > max(self._live, _COMPACT_MIN):
            self._compact()
        return record

    def by_label(self, label: str | None) -> list[ImageRecord]:
        """All records with the given label, in insertion order."""
        code = self._label_codes.get(label)
        if code is None:
            return []
        n = len(self._map)
        rows = np.flatnonzero((self._label[:n] == code) & self.live.bits[self._map.ids])
        return list(self._records(rows))

    def labels(self) -> dict[str | None, int]:
        """Label -> record count."""
        codes, first, counts = np.unique(
            self._label[self._live_rows()], return_index=True, return_counts=True
        )
        return {
            self._labels[codes[i]]: int(counts[i]) for i in np.argsort(first)
        }

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def _row(self, image_id: int) -> int:
        """The live row holding ``image_id``, ``-1`` when there is none."""
        try:
            row = self._map.row(image_id)
        except (TypeError, ValueError, OverflowError):
            return -1  # not an id this catalog could hold
        return row if row >= 0 and self.live.bits[image_id] else -1

    def _known_row(self, image_id: int) -> int:
        row = self._row(image_id)
        if row < 0:
            raise CatalogError(f"unknown image id {image_id}")
        return row

    def _live_rows(self) -> np.ndarray:
        n = len(self._map)
        if self._live == n:
            return np.arange(n)
        return np.flatnonzero(self.live.bits[self._map.ids])

    def _record(self, row: int, image_id: int) -> ImageRecord:
        return self._materialise(
            image_id,
            int(self._width[row]),
            int(self._height[row]),
            self._mode[row],
            self._label[row],
        )

    def _records(self, rows: np.ndarray) -> Iterator[ImageRecord]:
        return map(
            self._materialise,
            self._map.ids[rows].tolist(),
            self._width[rows].tolist(),
            self._height[rows].tolist(),
            self._mode[rows].tolist(),
            self._label[rows].tolist(),
        )

    def _materialise(
        self, image_id: int, width: int, height: int, mode_code: int, label_code: int
    ) -> ImageRecord:
        mode = self._modes[mode_code]
        name = self._names.get(image_id)
        return ImageRecord(
            image_id=image_id,
            name=_default_name(mode, image_id) if name is None else name,
            width=width,
            height=height,
            mode=mode,
            label=self._labels[label_code],
            extra=self._extras.get(image_id) or {},
        )

    def _append(self, ids, width, height, modes, labels, names, extras) -> None:
        """Append rows: ``width``/``height`` one value or one per row,
        ``modes`` one mode or one per row, ``labels``/``names``/
        ``extras`` one per row or ``None`` for all-default."""
        try:
            ids = np.array(ids, dtype=np.int64).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            raise CatalogError(f"image ids must be 64-bit integers; got {ids!r}") from None
        if not ids.shape[0]:
            return
        taken = ids[self.live.of(ids)]
        if taken.size:
            raise CatalogError(f"duplicate image id {int(taken[0])}")
        if not (ids[1:] > ids[:-1]).all():  # ascending ids repeat none
            unique, counts = np.unique(ids, return_counts=True)
            if unique.shape[0] != ids.shape[0]:
                raise CatalogError(f"duplicate image id {int(unique[counts > 1][0])}")
        if len(self._map) and (self._map.rows(ids) >= 0).any():
            self._compact()  # a deleted id comes back: its dead row goes first

        one_mode = isinstance(modes, str)
        values = {
            "_width": width,
            "_height": height,
            "_mode": _code(self._modes, self._mode_codes, modes)
            if one_mode
            else [_code(self._modes, self._mode_codes, mode) for mode in modes],
            "_label": _code(self._labels, self._label_codes, None)
            if labels is None
            else [_code(self._labels, self._label_codes, label) for label in labels],
        }
        n, total = len(self._map), len(self._map) + ids.shape[0]
        for column_name, column_values in values.items():
            column = reserve(getattr(self, column_name), n, total)
            column[n:total] = column_values
            setattr(self, column_name, column)
        self._map.extend(ids)
        self.live.grow(int(ids.max()) + 1, int(ids.min()))
        self.live.set(ids)
        self._live += ids.shape[0]

        if names is not None:  # (an int object per id only when needed)
            row_modes = [modes] * len(ids) if one_mode else modes
            for image_id, mode, name in zip(ids.tolist(), row_modes, names):
                if name != _default_name(mode, image_id):
                    self._names[image_id] = name
        if extras is not None:
            for image_id, extra in zip(ids.tolist(), extras):
                if extra:
                    self._extras[image_id] = extra

    def _compact(self) -> None:
        """Squeeze out the dead rows (insertion order is kept)."""
        keep = self._live_rows()
        self._map = IdMap(self._map.ids[keep])
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[keep])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path, *, fs: FileSystem = REAL_FS) -> None:
        """Write the catalog as a JSON file, atomically.

        Written to ``path + '.tmp'``, fsync'd, then renamed over — a
        crash mid-save leaves the previous catalog intact instead of a
        half-written JSON document.
        """
        payload = {
            "next_id": self.next_id,
            "records": [record.to_dict() for record in self],
        }
        atomic_write_bytes(
            path,
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
            fs=fs,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Catalog":
        """Read a catalog written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise CatalogError(f"catalog file does not exist: {path}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CatalogError(f"catalog file is not valid JSON: {path}") from exc
        catalog = cls()
        catalog.insert_many(
            ImageRecord.from_dict(raw) for raw in payload.get("records", [])
        )
        catalog.live.grow(int(payload.get("next_id", 0)))
        return catalog


def _code(values: list, codes: dict, value) -> int:
    """The small integer standing for ``value`` in a column (assigned
    on first use; ``values[code]`` is the way back)."""
    code = codes.get(value)
    if code is None:
        code = codes[value] = len(values)
        values.append(value)
    return code
