"""Backend conformance suite: the :class:`VectorBackend` contract.

Every backend registered in :data:`repro.db.backend.BACKENDS` is run
through the same battery — a third backend joins this suite by adding
one ``@register_backend`` factory class, nothing here changes:

* **round-trips** — ``append``/``take``/``view`` preserve rows exactly
  (``np.array_equal``, not allclose);
* **view immutability** — ``view()`` is read-only, and a view taken
  *before* a mutation still shows the rows it showed then;
* **operation-stream parity** — a hypothesis-driven random stream of
  appends and takes applied to any backend matches the in-memory
  oracle bit for bit after every step;
* **edges** — single-row stores, shrink-to-one, growth across the
  capacity boundary, many-page stores;
* **bounded-pool accounting** — a bounded backend's ``pool_stats()``
  never reports more resident pages than its capacity, and no
  ``iter_blocks`` block exceeds that many pages.

See ``docs/storage.md`` for the protocol specification.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.backend import (
    BACKENDS,
    MemoryBackend,
    resolve_backend_factory,
)

_DIM = 5


_CACHE_PAGES, _PAGE_RECORDS = 3, 4


def _factory(name, tmp_path, **overrides):
    """Instantiate any registered backend the uniform way."""
    kwargs = {"cache_pages": _CACHE_PAGES, "page_records": _PAGE_RECORDS}
    kwargs.update(overrides)
    return BACKENDS[name](tmp_path / name, **kwargs)


def _rows(rng, n):
    return rng.random((n, _DIM))


@pytest.fixture(params=sorted(BACKENDS))
def factory(request, tmp_path):
    return _factory(request.param, tmp_path)


# ---------------------------------------------------------------------------
# Round-trips and views
# ---------------------------------------------------------------------------
class TestRoundTrips:
    def test_build_view_identity(self, factory, rng):
        rows = _rows(rng, 17)
        backend = factory(rows)
        view = backend.view()
        assert view.shape == (17, _DIM)
        assert view.dtype == np.float64
        assert np.array_equal(view, rows)
        assert len(backend) == 17 and backend.n_rows == 17
        assert backend.dim == _DIM
        backend.close()

    def test_append_returns_grown_view(self, factory, rng):
        backend = factory(_rows(rng, 3))
        extra = _rows(rng, 4)
        view = backend.append(extra)
        assert view.shape == (7, _DIM)
        assert np.array_equal(view[3:], extra)
        backend.close()

    def test_take_keeps_exactly_the_kept_rows(self, factory, rng):
        rows = _rows(rng, 10)
        backend = factory(rows)
        keep = [0, 2, 3, 7, 9]
        view = backend.take(keep)
        assert np.array_equal(view, rows[keep])
        assert len(backend) == 5
        backend.close()

    def test_rows_gathers_copies(self, factory, rng):
        rows = _rows(rng, 12)
        backend = factory(rows)
        gathered = backend.rows([11, 0, 5])
        assert np.array_equal(gathered, rows[[11, 0, 5]])
        gathered[0, 0] = -1.0  # a copy: the store must not see this
        assert np.array_equal(backend.view(), rows)
        backend.close()

    def test_iter_blocks_concatenates_to_view(self, factory, rng):
        rows = _rows(rng, 13)  # > 3 pages at page_records=4
        backend = factory(rows)
        starts, blocks = [], []
        for start, block in backend.iter_blocks():
            assert not block.flags.writeable
            if factory.bounded:  # a scan holds one run of pool-many pages
                assert len(block) <= _CACHE_PAGES * _PAGE_RECORDS
            starts.append(start)
            blocks.append(np.array(block))
        assert starts[0] == 0
        assert starts == sorted(starts)
        assert np.array_equal(np.concatenate(blocks), rows)
        backend.close()


class TestViewImmutability:
    def test_view_is_read_only(self, factory, rng):
        backend = factory(_rows(rng, 4))
        with pytest.raises(ValueError):
            backend.view()[0, 0] = 1.0
        backend.close()

    def test_view_survives_append(self, factory, rng):
        """A view taken before an append still shows the same rows."""
        rows = _rows(rng, 6)
        backend = factory(rows)
        before = backend.view()
        backend.append(_rows(rng, 5))
        assert np.array_equal(np.array(before[:6]), rows)
        backend.close()

    def test_view_survives_take(self, factory, rng):
        rows = _rows(rng, 6)
        backend = factory(rows)
        before = np.array(backend.view())
        backend.take([1, 4])
        assert np.array_equal(before, rows)
        backend.close()


# ---------------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------------
class TestEdges:
    def test_single_row(self, factory, rng):
        rows = _rows(rng, 1)
        backend = factory(rows)
        assert np.array_equal(backend.view(), rows)
        assert np.array_equal(backend.rows([0]), rows)
        backend.close()

    def test_take_to_empty_then_append(self, factory, rng):
        backend = factory(_rows(rng, 3))
        view = backend.take([])
        assert view.shape == (0, _DIM)
        assert len(backend) == 0
        assert list(backend.iter_blocks()) == []
        fresh = _rows(rng, 2)
        assert np.array_equal(backend.append(fresh), fresh)
        backend.close()

    def test_growth_across_capacity_boundaries(self, factory, rng):
        """One-row appends across the doubling boundaries (8, 16, 32)."""
        rows = _rows(rng, 1)
        backend = factory(rows)
        for _ in range(40):
            row = _rows(rng, 1)
            rows = np.vstack([rows, row])
            view = backend.append(row)
            assert np.array_equal(view, rows)
        backend.close()

    def test_shrink_at_quarter_occupancy(self, factory, rng):
        """Deleting down through the shrink threshold stays exact."""
        rows = _rows(rng, 33)
        backend = factory(rows)
        while rows.shape[0] > 1:
            keep = list(range(rows.shape[0] - 4))
            keep = keep or [0]
            rows = rows[keep]
            assert np.array_equal(backend.take(keep), rows)
        backend.close()

    def test_flush_is_idempotent(self, factory, rng):
        backend = factory(_rows(rng, 5))
        backend.flush()
        backend.flush()
        assert len(backend) == 5
        backend.close()


# ---------------------------------------------------------------------------
# Pool accounting (bounded backends only)
# ---------------------------------------------------------------------------
class TestPoolAccounting:
    def test_resident_never_exceeds_capacity(self, factory, rng):
        if not factory.bounded:
            pytest.skip("unbounded backend has no pool")
        backend = factory(_rows(rng, 50))  # 13 pages at page_records=4
        for _ in range(3):
            for _start, _block in backend.iter_blocks():
                pass
        backend.rows(list(range(0, 50, 7)))
        stats = backend.pool_stats()
        assert 0 < stats["resident"] <= stats["capacity"] == 3
        assert stats["misses"] > 0
        assert stats["evictions"] > 0
        backend.close()

    def test_factory_aggregates_closed_backends(self, factory, rng):
        if not factory.bounded:
            pytest.skip("unbounded backend has no pool")
        first = factory(_rows(rng, 20))
        list(first.iter_blocks())
        misses = first.pool_stats()["misses"]
        first.close()
        assert factory.pool_stats()["misses"] >= misses > 0
        assert factory.pool_stats()["resident"] == 0  # nothing open

    def test_unbounded_pool_is_all_zero(self, rng, tmp_path):
        factory = _factory("memory", tmp_path)
        backend = factory(_rows(rng, 9))
        assert set(backend.pool_stats().values()) == {0}
        assert set(factory.pool_stats().values()) == {0}
        backend.close()


# ---------------------------------------------------------------------------
# Hypothesis: operation-stream parity against the in-memory oracle
# ---------------------------------------------------------------------------
class TestOperationStreamParity:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_memory_oracle(self, name, tmp_path_factory, data):
        """Any interleaving of appends and takes matches MemoryBackend
        bit for bit after every operation."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tmp = tmp_path_factory.mktemp("stream")
        factory = _factory(name, tmp)
        start = _rows(rng, data.draw(st.integers(1, 9)))
        backend = factory(start)
        oracle = MemoryBackend(start)
        n_ops = data.draw(st.integers(1, 10))
        for _ in range(n_ops):
            if len(oracle) == 0 or data.draw(st.booleans()):
                rows = _rows(rng, data.draw(st.integers(1, 7)))
                got = backend.append(rows)
                want = oracle.append(rows)
            else:
                n = len(oracle)
                keep = sorted(
                    data.draw(
                        st.sets(st.integers(0, n - 1), min_size=0, max_size=n)
                    )
                )
                got = backend.take(keep)
                want = oracle.take(keep)
            assert np.array_equal(got, want)
            assert np.array_equal(backend.view(), oracle.view())
            assert len(backend) == len(oracle)
        gather = [i for i in range(len(oracle)) if i % 3 == 0]
        if gather:
            assert np.array_equal(backend.rows(gather), oracle.rows(gather))
        backend.close()


# ---------------------------------------------------------------------------
# Registry and resolution wiring
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_known_backends_registered(self):
        assert {"memory", "mmap"} <= set(BACKENDS)

    def test_factory_names_match_registry_keys(self, tmp_path):
        for name in BACKENDS:
            assert _factory(name, tmp_path).name == name

    def test_resolve_specs(self, tmp_path):
        assert resolve_backend_factory("memory").name == "memory"
        mmap = resolve_backend_factory(f"mmap:{tmp_path}", cache_pages=2)
        assert mmap.name == "mmap"
        assert mmap.root == tmp_path
        assert mmap.cache_pages == 2

    def test_resolve_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", f"mmap:{tmp_path}")
        monkeypatch.setenv("REPRO_CACHE_PAGES", "5")
        factory = resolve_backend_factory(None)
        assert factory.name == "mmap"
        assert factory.cache_pages == 5

    def test_resolve_passthrough(self, tmp_path):
        factory = _factory("mmap", tmp_path)
        assert resolve_backend_factory(factory) is factory

    def test_unknown_spec_raises(self):
        with pytest.raises(Exception, match="backend"):
            resolve_backend_factory("bogus")
