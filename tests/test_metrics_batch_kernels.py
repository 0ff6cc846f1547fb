"""Property-based parity harness for the EMD and Hausdorff batch kernels.

These were the last two loop-fallback metrics; their new vectorized
kernels (stacked cumsum / median-shift for the match distance,
padded-and-masked pairwise point blocks for Hausdorff) are held to the
batch contract at its strictest reading:

    ``metric.distance_batch(q, X) == [metric.distance(q, x) for x in X]``

**to the last ULP**, over seeded random histograms and point sets,
ragged sizes, zero-mass rows, single-bin domains, and single-point sets.
Exactness is asserted with ``np.array_equal`` — no tolerances anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import MetricError
from repro.metrics.base import CountingMetric, hide_batch_kernel
from repro.metrics.emd import (
    MatchDistance,
    circular_match_distance,
    circular_match_distance_batch,
    match_distance,
    match_distance_batch,
)
from repro.metrics.hausdorff import HausdorffDistance
from repro.metrics.shifted import CircularShiftDistance


def _loop(metric, query, vectors):
    return np.array([metric.distance(query, row) for row in vectors])


def _assert_batch_parity(metric, query, vectors):
    batch = metric.distance_batch(query, vectors)
    assert batch.dtype == np.float64
    assert np.array_equal(batch, _loop(metric, query, vectors))


# ---------------------------------------------------------------------------
# Match distance (1-D EMD) and its circular variant
# ---------------------------------------------------------------------------
_EMD_VARIANTS = [
    MatchDistance(),
    MatchDistance(circular=True),
    MatchDistance(normalize=False),
    MatchDistance(circular=True, normalize=False),
]
_EMD_IDS = ["emd", "cemd", "emd-raw", "cemd-raw"]


def _histograms(dim: int):
    return st.tuples(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 32), st.just(dim)),
            elements=st.floats(0.0, 10.0, allow_nan=False, width=64),
        ),
        hnp.arrays(
            np.float64,
            st.just((dim,)),
            elements=st.floats(0.0, 10.0, allow_nan=False, width=64),
        ),
    )


class TestMatchDistanceKernel:
    @pytest.mark.parametrize("metric", _EMD_VARIANTS[:2], ids=_EMD_IDS[:2])
    @given(data=st.one_of(_histograms(1), _histograms(2), _histograms(7), _histograms(16)))
    @settings(max_examples=60, deadline=None)
    def test_property_parity_normalizing(self, metric, data):
        # Arbitrary non-negative mass vectors, including all-zero rows
        # and a zero query (hypothesis shrinks toward zeros), single-bin
        # domains (dim=1), and even/odd dims for the median cut.
        vectors, query = data
        _assert_batch_parity(metric, query, vectors)

    @pytest.mark.parametrize("metric", _EMD_VARIANTS[2:], ids=_EMD_IDS[2:])
    @given(data=st.one_of(_histograms(1), _histograms(4), _histograms(13)))
    @settings(max_examples=60, deadline=None)
    def test_property_parity_raw_equal_mass(self, metric, data):
        # The non-normalizing variants require equal masses: rescale every
        # row to the query's mass (or run the all-zero edge case as-is).
        vectors, query = data
        mass = float(query.sum())
        masses = vectors.sum(axis=1)
        if mass < 1e-6 or np.any(masses < 1e-6):
            # Zero or subnormal masses make the rescale itself overflow;
            # shift onto a well-conditioned support instead.
            query = query + 0.5
            vectors = vectors + 0.5
            mass = float(query.sum())
            masses = vectors.sum(axis=1)
        vectors = vectors * (mass / masses)[:, None]
        _assert_batch_parity(metric, query, vectors)

    @pytest.mark.parametrize("metric", _EMD_VARIANTS, ids=_EMD_IDS)
    def test_seeded_sweep(self, metric, rng):
        for dim in (1, 2, 3, 8, 12, 33, 64, 128):
            vectors = rng.random((50, dim)) * 3.0
            query = rng.random(dim) * 3.0
            if not metric._normalize:
                vectors /= vectors.sum(axis=1, keepdims=True)
                query /= query.sum()
            _assert_batch_parity(metric, query, vectors)

    def test_zero_mass_rows_and_query(self, rng):
        for circular in (False, True):
            metric = MatchDistance(circular=circular)
            vectors = rng.random((12, 6))
            vectors[2] = 0.0
            vectors[9] = 0.0
            _assert_batch_parity(metric, rng.random(6), vectors)
            _assert_batch_parity(metric, np.zeros(6), vectors)

    def test_single_bin(self, rng):
        for metric in _EMD_VARIANTS[:2]:
            vectors = rng.random((8, 1))
            vectors[3] = 0.0
            _assert_batch_parity(metric, rng.random(1), vectors)

    def test_empty_batch(self, rng):
        for metric in _EMD_VARIANTS:
            out = metric.distance_batch(rng.random(5), np.empty((0, 5)))
            assert out.shape == (0,) and out.dtype == np.float64

    def test_module_kernels_match_scalar_functions(self, rng):
        query = rng.random(9)
        vectors = rng.random((20, 9))
        masses = vectors.sum(axis=1)
        vectors = vectors * (float(query.sum()) / masses)[:, None]
        assert np.array_equal(
            match_distance_batch(query, vectors),
            np.array([match_distance(query, row) for row in vectors]),
        )
        assert np.array_equal(
            circular_match_distance_batch(query, vectors),
            np.array([circular_match_distance(query, row) for row in vectors]),
        )

    def test_rejects_negative_and_unequal_mass(self, rng):
        query = rng.random(5)
        negative = rng.random((4, 5))
        negative[1, 2] = -0.5
        with pytest.raises(MetricError, match="non-negative"):
            match_distance_batch(query, negative)
        unequal = rng.random((4, 5)) + 1.0
        with pytest.raises(MetricError, match="equal masses"):
            match_distance_batch(query, unequal * 3.0)
        with pytest.raises(MetricError, match="equal masses"):
            circular_match_distance_batch(query, unequal * 3.0)

    def test_counting_metric_delegates_to_kernel(self, rng):
        counter = CountingMetric(MatchDistance())
        counter.distance_batch(rng.random(6), rng.random((17, 6)))
        assert counter.count == 17

    def test_shift_kernel_over_emd_base_is_vectorized_and_exact(self, rng):
        metric = CircularShiftDistance(MatchDistance())
        vectors = rng.random((10, 8))
        _assert_batch_parity(metric, rng.random(8), vectors)


# ---------------------------------------------------------------------------
# Hausdorff over ragged NaN-padded point buffers
# ---------------------------------------------------------------------------
def _pad_points(rng, n_rows: int, max_points: int, point_dim: int) -> np.ndarray:
    """Flat buffers with ragged valid prefixes and NaN padding."""
    buffers = np.full((n_rows, max_points * point_dim), np.nan)
    for i in range(n_rows):
        count = int(rng.integers(1, max_points + 1))
        buffers[i, : count * point_dim] = rng.random(count * point_dim)
    return buffers


class TestHausdorffKernel:
    @given(
        n_rows=st.integers(1, 20),
        max_points=st.integers(1, 9),
        point_dim=st.integers(1, 3),
        query_points=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_parity_ragged(
        self, n_rows, max_points, point_dim, query_points, seed
    ):
        rng = np.random.default_rng(seed)
        metric = HausdorffDistance(point_dim=point_dim)
        vectors = _pad_points(rng, n_rows, max_points, point_dim)
        valid_query_points = min(query_points, max_points)
        query = np.full(max_points * point_dim, np.nan)
        query[: valid_query_points * point_dim] = rng.random(
            valid_query_points * point_dim
        )
        _assert_batch_parity(metric, query, vectors)

    def test_seeded_sweep_dense_buffers(self, rng):
        for point_dim in (1, 2, 3, 4):
            metric = HausdorffDistance(point_dim=point_dim)
            dim = point_dim * 12
            vectors = rng.random((40, dim))
            _assert_batch_parity(metric, rng.random(dim), vectors)

    def test_interior_nan_points_drop_like_scalar(self, rng):
        metric = HausdorffDistance(point_dim=2)
        vectors = rng.random((6, 10))
        vectors[1, 4:6] = np.nan  # a NaN point mid-buffer, not trailing
        vectors[4, 0:2] = np.nan
        _assert_batch_parity(metric, rng.random(10), vectors)

    def test_single_point_sets(self, rng):
        metric = HausdorffDistance(point_dim=2)
        vectors = rng.random((5, 8))
        vectors[:, 2:] = np.nan  # every candidate collapses to one point
        _assert_batch_parity(metric, rng.random(8), vectors)
        query = np.full(8, np.nan)
        query[:2] = rng.random(2)  # one-point query against one-point sets
        _assert_batch_parity(metric, query, vectors)

    def test_empty_batch(self, rng):
        out = HausdorffDistance(point_dim=2).distance_batch(
            rng.random(6), np.empty((0, 6))
        )
        assert out.shape == (0,) and out.dtype == np.float64

    def test_rejects_partial_points(self, rng):
        metric = HausdorffDistance(point_dim=2)
        vectors = rng.random((3, 6))
        vectors[1, 5] = np.nan  # 5 valid values: not a whole 2-d point
        with pytest.raises(MetricError, match="whole number"):
            metric.distance_batch(rng.random(6), vectors)
        all_nan = np.full((2, 6), np.nan)
        with pytest.raises(MetricError, match="whole number"):
            metric.distance_batch(rng.random(6), all_nan)

    def test_counting_metric_delegates_to_kernel(self, rng):
        counter = CountingMetric(HausdorffDistance(point_dim=2))
        counter.distance_batch(rng.random(8), rng.random((11, 8)))
        assert counter.count == 11


# ---------------------------------------------------------------------------
# The kernels against their own loop fallbacks (hide_batch_kernel)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "metric",
    [
        MatchDistance(),
        MatchDistance(circular=True),
        HausdorffDistance(point_dim=2),
    ],
    ids=["emd", "cemd", "hausdorff"],
)
def test_kernel_equals_hidden_fallback(metric, rng):
    hidden = hide_batch_kernel(metric)
    query = rng.random(12)
    vectors = rng.random((30, 12))
    assert np.array_equal(
        metric.distance_batch(query, vectors),
        hidden.distance_batch(query, vectors),
    )
