"""A failed write to an ``mmap`` index core leaves the core as it was.

The crash sweep (``tests/test_crash_faults.py``) cuts power at each
filesystem boundary and recovers from disk.  This sweep fails one
boundary with ``ENOSPC`` instead (:class:`~tests.faults.FaultFS` in
``error`` mode) and lets the process go on serving: the mutation raises,
and answers, ``last_stats``, ``size``, ``core.n_rows`` and the pool
counters read exactly as before it; a retry then succeeds and matches
an index on the in-RAM backend that never failed.

Swept: every boundary of one core append (``insert_batch`` on the
linear scan and the M-tree, the two in-place growers) and of one core
``take`` (``delete`` on the linear scan).  Boundary counts come from a
:class:`~tests.faults.CountingFS` calibration of the same operation.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.db.backend import MemoryBackendFactory, MmapBackendFactory
from repro.db.fsutil import REAL_FS
from repro.index.linear import LinearScanIndex
from repro.index.mtree import MTree
from repro.metrics.minkowski import EuclideanDistance
from tests.faults import CountingFS, FaultFS

_N, _DIM = 100, 4
_RNG = np.random.default_rng(30)
_ROWS = _RNG.random((_N, _DIM))
_EXTRA = _RNG.random((20, _DIM))
_QUERIES = _RNG.random((3, _DIM))

_KINDS = {
    "linear": lambda: LinearScanIndex(EuclideanDistance()),
    "mtree": lambda: MTree(EuclideanDistance(), capacity=8),
}
_OPS = {
    "append": lambda index: index.insert_batch(
        list(range(_N, _N + len(_EXTRA))), _EXTRA
    ),
    "take": lambda index: index.delete([7]),
}


def _mmap(root, fs=REAL_FS) -> MmapBackendFactory:
    return MmapBackendFactory(root, cache_pages=2, page_records=8, fs=fs)


def _build(kind: str, factory):
    index = _KINDS[kind]()
    index.backend_factory = factory
    return index.build(list(range(_N)), _ROWS)


def _observed(index) -> list:
    """Everything a caller can read off the index (pool counters aside:
    reading these moves them)."""
    out = [index.size, index._core.n_rows, index.vectors_of([3, 50, 99]).tolist()]
    for query in _QUERIES:
        out.append((index.knn_search(query, 7), index.last_stats))
        out.append((index.range_search(query, 0.5), index.last_stats))
    return out


class TestCoreWriteErrorSweep:
    @pytest.mark.parametrize(
        ("kind", "op"), [("linear", "append"), ("mtree", "append"), ("linear", "take")]
    )
    def test_every_boundary_fails_cleanly_then_retries(self, tmp_path, kind, op):
        calibration = CountingFS()
        index = _build(kind, _mmap(tmp_path / "cal", calibration))
        start = calibration.count
        _OPS[op](index)
        boundaries = calibration.count - start
        index.close()
        assert boundaries >= 5  # page writes, the two-phase flush, ...

        oracle = _build(kind, MemoryBackendFactory())
        _OPS[op](oracle)
        want = _observed(oracle)

        for at in range(boundaries):
            fs = FaultFS(10**9, mode="error")
            factory = _mmap(tmp_path / f"cores-{at}", fs)
            index = _build(kind, factory)
            before = _observed(index)
            pools = index._core.pool_stats(), factory.pool_stats()
            fs.crash_at = fs.count + at
            with pytest.raises(OSError) as failed:
                _OPS[op](index)
            assert failed.value.errno == errno.ENOSPC, at
            assert (index._core.pool_stats(), factory.pool_stats()) == pools, at
            assert _observed(index) == before, at
            _OPS[op](index)  # only the one boundary fails
            assert _observed(index) == want, at
            pool = index._core.pool_stats()
            assert pool["resident"] <= pool["capacity"]
            index.close()

    def test_a_take_keeps_counting(self, tmp_path):
        factory = _mmap(tmp_path)
        index = _build("linear", factory)
        index.vectors_of(list(range(0, _N, 3)))  # by-id gathers cycle the pool
        index.knn_search(_QUERIES[0], 5)  # a scan counts its pages
        before = index._core.pool_stats(), factory.pool_stats()
        index.delete([7])
        after = index._core.pool_stats(), factory.pool_stats()
        for old, new in zip(before, after):
            for key in ("hits", "misses", "evictions"):
                assert new[key] >= old[key], key
            assert new["resident"] <= new["capacity"]
        index.vectors_of([3, 4, 50])  # the new file's pages 0, 0, 6
        again = index._core.pool_stats()
        assert again["misses"] == after[0]["misses"] + 2
        assert again["hits"] == after[0]["hits"] + 1
        index.close()
