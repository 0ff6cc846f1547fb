"""The id -> row map behind the catalog, every index core and every pending buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.idmap import IdMap


def _check(id_map, column):
    """Every id maps to its latest row; anything else to -1."""
    latest = {item_id: row for row, item_id in enumerate(column)}
    assert len(id_map) == len(column) and id_map.ids.tolist() == column
    probes = sorted(set(column)) + [min(column, default=0) - 1, max(column, default=0) + 1]
    assert id_map.rows(probes).tolist() == [latest.get(p, -1) for p in probes]
    for probe in probes:
        assert id_map.row(probe) == latest.get(probe, -1)
    assert id_map.rows([]).shape == (0,)


def test_ascending_ids_need_no_sorter():
    id_map = IdMap()
    for start in range(0, 50, 10):
        id_map.extend(range(start, start + 10))
    id_map.extend([49, 49, 60])  # repeats keep the order
    _check(id_map, list(range(50)) + [49, 49, 60])
    assert id_map._ascending and id_map._sorter is None
    assert id_map.row(49) == 51  # the latest of the three rows


def test_out_of_order_ids_sort_once_and_appends_keep_the_sorter():
    id_map = IdMap(np.array([5, 3, 9, 3], dtype=np.int64))  # adopts the array
    _check(id_map, [5, 3, 9, 3])
    sorter = id_map._sorter
    assert sorter is not None and not id_map._ascending
    id_map.extend([9, 12, 40])  # continues the sorted order
    assert id_map._sorter is not None  # extended (or regrown), not dropped
    _check(id_map, [5, 3, 9, 3, 9, 12, 40])
    id_map.extend([7])  # out of order: dropped, rebuilt by the next lookup
    assert id_map._sorter is None
    _check(id_map, [5, 3, 9, 3, 9, 12, 40, 7])


def test_growth_is_amortised():
    id_map = IdMap()
    buffers = set()
    for item_id in range(3000):
        id_map.extend([item_id])
        buffers.add(id(id_map._ids))
    assert len(buffers) <= 12  # capacity doubles: ~log2(3000 / 8) reallocations
    bulk = IdMap()
    bulk.extend(np.arange(200_000))
    assert bulk._ids.shape[0] == 200_000  # one exact allocation, no slack


def test_ids_outside_int64_are_rejected():
    with pytest.raises(OverflowError):
        IdMap().extend([2**70])


@settings(max_examples=80, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(-20, 60), max_size=6), min_size=1, max_size=12
    ),
    lookups_between=st.booleans(),
)
def test_matches_a_dict_of_latest_rows(batches, lookups_between):
    id_map, column = IdMap(), []
    for batch in batches:
        id_map.extend(batch)
        column.extend(batch)
        if lookups_between:  # exercises the kept-sorter append path
            _check(id_map, column)
    _check(id_map, column)
