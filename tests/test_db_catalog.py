"""Tests for the image catalog."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db.catalog import Catalog, ImageRecord
from repro.errors import CatalogError


def _record(image_id, label=None, **extra):
    return ImageRecord(
        image_id=image_id,
        name=f"img_{image_id}",
        width=64,
        height=48,
        mode="rgb",
        label=label,
        extra=extra,
    )


class TestRecords:
    def test_round_trip_dict(self):
        record = _record(3, label="cats", source="camera")
        assert ImageRecord.from_dict(record.to_dict()) == record

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(CatalogError, match="malformed"):
            ImageRecord.from_dict({"name": "x"})

    def test_frozen(self):
        record = _record(1)
        with pytest.raises(AttributeError):
            record.name = "other"


class TestCatalogOperations:
    def test_insert_and_get(self):
        catalog = Catalog()
        record = _record(0)
        catalog.insert(record)
        assert catalog.get(0) == record
        assert 0 in catalog
        assert len(catalog) == 1

    def test_duplicate_id_rejected(self):
        catalog = Catalog()
        catalog.insert(_record(0))
        with pytest.raises(CatalogError, match="duplicate"):
            catalog.insert(_record(0))

    def test_get_unknown(self):
        with pytest.raises(CatalogError, match="unknown"):
            Catalog().get(5)

    def test_delete(self):
        catalog = Catalog()
        catalog.insert(_record(0))
        removed = catalog.delete(0)
        assert removed.image_id == 0
        assert 0 not in catalog
        with pytest.raises(CatalogError):
            catalog.delete(0)

    def test_allocate_id_monotonic(self):
        catalog = Catalog()
        first = catalog.allocate_id()
        second = catalog.allocate_id()
        assert second == first + 1

    def test_allocate_respects_inserted_ids(self):
        catalog = Catalog()
        catalog.insert(_record(10))
        assert catalog.allocate_id() == 11

    def test_iteration_order(self):
        catalog = Catalog()
        for image_id in (2, 0, 5):
            catalog.insert(_record(image_id))
        assert [r.image_id for r in catalog] == [2, 0, 5]
        assert catalog.ids == [2, 0, 5]

    def test_by_label_and_counts(self):
        catalog = Catalog()
        catalog.insert(_record(0, label="a"))
        catalog.insert(_record(1, label="b"))
        catalog.insert(_record(2, label="a"))
        catalog.insert(_record(3))
        assert [r.image_id for r in catalog.by_label("a")] == [0, 2]
        assert catalog.labels() == {"a": 2, "b": 1, None: 1}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        catalog = Catalog()
        catalog.insert(_record(0, label="x", note="hello"))
        catalog.insert(_record(7, label="y"))
        path = tmp_path / "catalog.json"
        catalog.save(path)
        loaded = Catalog.load(path)
        assert len(loaded) == 2
        assert loaded.get(7).label == "y"
        assert loaded.get(0).extra == {"note": "hello"}
        assert loaded.allocate_id() == 8

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="does not exist"):
            Catalog.load(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CatalogError, match="JSON"):
            Catalog.load(path)


# ----------------------------------------------------------------------
# The columnar catalog against a plain dict of records
# ----------------------------------------------------------------------
class TestColumnarStorage:
    """Names, labels and ``extra`` survive storage that keeps only what
    differs from the default, and nothing per image is a Python object."""

    def test_default_names_are_not_stored(self):
        catalog = Catalog()
        catalog.insert(ImageRecord(0, "image_0", 4, 4, "rgb"))
        catalog.insert(ImageRecord(1, "vector_1", 0, 0, "vector"))
        catalog.insert(ImageRecord(2, "vector_2", 4, 4, "rgb"))  # not rgb's default
        catalog.insert(ImageRecord(3, "", 4, 4, "gray"))
        catalog.insert_rows([4, 5], names=["vector_4", "five"])
        assert catalog._names == {2: "vector_2", 3: "", 5: "five"}
        assert [record.name for record in catalog] == [
            "image_0", "vector_1", "vector_2", "", "vector_4", "five"
        ]
        assert catalog.delete(5).name == "five" and 5 not in catalog._names

    def test_labels_and_extra_round_trip(self):
        catalog = Catalog()
        catalog.insert(_record(0, label="a", shot=3, tags=["x"]))
        catalog.insert(_record(1))
        catalog.insert(_record(2, label=""))  # the empty label is not None
        catalog.insert_rows([3, 4, 5], labels=["b", None, "a"])
        assert [record.label for record in catalog] == ["a", None, "", "b", None, "a"]
        assert catalog.labels() == {"a": 2, None: 2, "": 1, "b": 1}
        assert list(catalog.labels()) == ["a", None, "", "b"]  # first-seen order
        assert [r.image_id for r in catalog.by_label(None)] == [1, 4]
        assert catalog.by_label("never") == []
        assert catalog.get(0).extra == {"shot": 3, "tags": ["x"]}
        assert catalog.get(1).extra == {} and catalog._extras.keys() == {0}
        assert catalog.get(3) == ImageRecord(3, "vector_3", 0, 0, "vector", "b")

    def test_bulk_insert_is_all_or_nothing(self):
        catalog = Catalog()
        catalog.insert(_record(2))
        for clash in ([5, 2], [5, 6, 5]):
            with pytest.raises(CatalogError, match="duplicate image id"):
                catalog.insert_rows(clash)
            assert catalog.ids == [2] and catalog.next_id == 3
        with pytest.raises(CatalogError, match="64-bit"):
            catalog.insert_rows([2**70])
        assert 2**70 not in catalog and "2" not in catalog and None not in catalog

    def test_deleted_rows_are_reclaimed(self):
        catalog = Catalog()
        catalog.insert_rows(range(1000))
        for image_id in range(0, 1000, 2):
            catalog.delete(image_id)
        for image_id in range(1, 999, 2):
            catalog.delete(image_id)
        assert catalog.ids == [999] and len(catalog) == 1
        assert len(catalog._map) < 100  # dead rows do not pile up
        assert all(len(getattr(catalog, name)) < 100 for name in ("_width", "_label"))
        catalog.insert(_record(4))  # a reclaimed id is an ordinary new one
        assert catalog.ids == [999, 4] and catalog.next_id == 1000

    def test_catalog_json_is_byte_identical_to_the_parent_commits(self, tmp_path):
        """The file below was written by the dict-of-records catalog this
        one replaces (same operations, parent commit)."""
        catalog = Catalog()
        catalog.insert(ImageRecord(0, "image_0", 64, 48, "rgb", "cats",
                                   {"source": "camera", "tags": ["a", "b"]}))
        catalog.insert(ImageRecord(1, "vector_1", 0, 0, "vector", None, {}))
        catalog.insert(ImageRecord(7, "holiday.ppm", 32, 32, "gray", "dogs", {}))
        catalog.insert(ImageRecord(3, "image_3", 8, 9, "vector", "cats", {}))
        catalog.insert_rows([4], labels=["dogs"])
        catalog.delete(1)
        catalog.insert(ImageRecord(1, "", 5, 5, "rgb", None, {"k": 1}))
        catalog.allocate_id()
        path = tmp_path / "catalog.json"
        catalog.save(path)
        assert path.read_text() == _PARENT_CATALOG_JSON
        reloaded = Catalog.load(path)
        reloaded.save(path)
        assert path.read_text() == _PARENT_CATALOG_JSON
        assert list(reloaded) == list(catalog) and reloaded.next_id == 9


_PARENT_CATALOG_JSON = (
    '{\n  "next_id": 9,\n  "records": [\n    {\n      "extra": {\n        "source": "camera",\n'
    '        "tags": [\n          "a",\n          "b"\n        ]\n      },\n      "height": 48,\n'
    '      "image_id": 0,\n      "label": "cats",\n      "mode": "rgb",\n      "name": "image_0",\n'
    '      "width": 64\n    },\n    {\n      "extra": {},\n      "height": 32,\n      "image_id": 7,\n'
    '      "label": "dogs",\n      "mode": "gray",\n      "name": "holiday.ppm",\n      "width": 32\n'
    '    },\n    {\n      "extra": {},\n      "height": 9,\n      "image_id": 3,\n      "label": "cats",\n'
    '      "mode": "vector",\n      "name": "image_3",\n      "width": 8\n    },\n    {\n'
    '      "extra": {},\n      "height": 0,\n      "image_id": 4,\n      "label": "dogs",\n'
    '      "mode": "vector",\n      "name": "vector_4",\n      "width": 0\n    },\n    {\n'
    '      "extra": {\n        "k": 1\n      },\n      "height": 5,\n      "image_id": 1,\n'
    '      "label": null,\n      "mode": "rgb",\n      "name": "",\n      "width": 5\n    }\n  ]\n}'
)


_LABELS = st.sampled_from([None, "a", "b", ""])
_IDS = st.integers(min_value=-3, max_value=40)


class CatalogModel(RuleBasedStateMachine):
    """The columnar catalog and a plain ``dict`` of records, side by side."""

    def __init__(self):
        super().__init__()
        self.catalog = Catalog()
        self.model: dict[int, ImageRecord] = {}
        self.next_id = 0

    def _inserted(self, records):
        for record in records:
            self.model[record.image_id] = record
            self.next_id = max(self.next_id, record.image_id + 1)

    @rule(image_id=_IDS, label=_LABELS, named=st.booleans(), tagged=st.booleans(),
          mode=st.sampled_from(["rgb", "gray", "vector"]))
    def insert(self, image_id, label, named, tagged, mode):
        record = ImageRecord(
            image_id, f"n{image_id}" if named else f"image_{image_id}", 3, 2, mode,
            label, {"t": image_id} if tagged else {},
        )
        if image_id in self.model:
            with pytest.raises(CatalogError, match="duplicate"):
                self.catalog.insert(record)
        else:
            self.catalog.insert(record)
            self._inserted([record])

    @rule(count=st.integers(0, 5), label=_LABELS)
    def add_allocated_rows(self, count, label):
        ids = [self.catalog.allocate_id() for _ in range(count)]
        assert ids == list(range(self.next_id, self.next_id + count))
        self.next_id += count
        self.catalog.insert_rows(ids, labels=[label] * count)
        self._inserted(
            ImageRecord(i, f"vector_{i}", 0, 0, "vector", label) for i in ids
        )

    @rule(ids=st.lists(_IDS, max_size=4, unique=True))
    def add_explicit_rows(self, ids):
        if any(i in self.model for i in ids):
            with pytest.raises(CatalogError, match="duplicate"):
                self.catalog.insert_rows(ids)
        else:
            self.catalog.insert_rows(ids, names=[f"x{i}" for i in ids])
            self._inserted(ImageRecord(i, f"x{i}", 0, 0, "vector") for i in ids)

    @rule(image_id=_IDS)
    def delete(self, image_id):
        if image_id in self.model:
            assert self.catalog.delete(image_id) == self.model.pop(image_id)
        else:
            with pytest.raises(CatalogError, match="unknown"):
                self.catalog.delete(image_id)

    @rule(image_id=_IDS)
    def get(self, image_id):
        assert (image_id in self.catalog) == (image_id in self.model)
        if image_id in self.model:
            assert self.catalog.get(image_id) == self.model[image_id]
        else:
            with pytest.raises(CatalogError, match="unknown"):
                self.catalog.get(image_id)

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "catalog.json"
            self.catalog.save(path)
            expected = {
                "next_id": self.next_id,
                "records": [record.to_dict() for record in self.model.values()],
            }
            assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True)
            self.catalog = Catalog.load(path)

    @invariant()
    def agrees_with_the_dict(self):
        catalog, model = self.catalog, self.model
        assert len(catalog) == len(model)
        assert catalog.ids == list(model) == catalog.id_array.tolist()
        assert list(catalog) == list(model.values())
        assert catalog.next_id == self.next_id
        counts: dict = {}
        for record in model.values():
            counts[record.label] = counts.get(record.label, 0) + 1
        assert catalog.labels() == counts and list(catalog.labels()) == list(counts)
        for label in (None, "a", "b", "", "never"):
            assert catalog.by_label(label) == [
                record for record in model.values() if record.label == label
            ]


TestCatalogModel = CatalogModel.TestCase
TestCatalogModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
