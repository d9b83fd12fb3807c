"""Metric correctness, subspace monotonicity, and MINDIST soundness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.exceptions import ConfigurationError
from repro.core.metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    MinkowskiMetric,
    get_metric,
)

ALL_METRICS = [
    EuclideanMetric(),
    ManhattanMetric(),
    ChebyshevMetric(),
    MinkowskiMetric(3.0),
]

FINITE = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
VECTORS = arrays(np.float64, 6, elements=FINITE)


class TestPointDistances:
    def test_euclidean_manual(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([3.0, 4.0, 12.0])
        metric = EuclideanMetric()
        assert metric.point(a, b, (0, 1)) == pytest.approx(5.0)
        assert metric.point(a, b, (0, 1, 2)) == pytest.approx(13.0)

    def test_manhattan_manual(self):
        a = np.array([1.0, 2.0])
        b = np.array([4.0, -2.0])
        assert ManhattanMetric().point(a, b, (0, 1)) == pytest.approx(7.0)

    def test_chebyshev_manual(self):
        a = np.array([1.0, 2.0])
        b = np.array([4.0, -2.0])
        assert ChebyshevMetric().point(a, b, (0, 1)) == pytest.approx(4.0)

    def test_minkowski_p2_equals_euclidean(self):
        a = np.array([1.0, -3.0, 2.0])
        b = np.array([0.5, 4.0, -1.0])
        dims = (0, 1, 2)
        assert MinkowskiMetric(2.0).point(a, b, dims) == pytest.approx(
            EuclideanMetric().point(a, b, dims)
        )

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_pairwise_matches_point(self, metric, rng):
        X = rng.normal(size=(40, 6))
        q = rng.normal(size=6)
        dims = (1, 3, 4)
        expected = [metric.point(X[i], q, np.asarray(dims)) for i in range(40)]
        got = metric.pairwise(X, q, np.asarray(dims))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_identity_of_indiscernibles(self, metric):
        a = np.array([1.0, 2.0, 3.0])
        assert metric.point(a, a.copy(), (0, 1, 2)) == 0.0


class TestMonotonicity:
    """The property the whole pruning framework rests on."""

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    @settings(max_examples=60, deadline=None)
    @given(a=VECTORS, b=VECTORS, seed=st.integers(0, 2**16))
    def test_distance_grows_with_dimensions(self, metric, a, b, seed):
        generator = np.random.default_rng(seed)
        d = a.shape[0]
        size_small = int(generator.integers(1, d))
        small = sorted(generator.choice(d, size=size_small, replace=False).tolist())
        extra = [dim for dim in range(d) if dim not in small]
        size_extra = int(generator.integers(1, len(extra) + 1))
        big = sorted(small + extra[:size_extra])
        small_arr, big_arr = np.asarray(small), np.asarray(big)
        assert metric.point(a, b, big_arr) >= metric.point(a, b, small_arr) - 1e-12


class TestMindist:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    @settings(max_examples=60, deadline=None)
    @given(q=VECTORS, c1=VECTORS, c2=VECTORS, p=VECTORS, seed=st.integers(0, 2**16))
    def test_mindist_is_lower_bound(self, metric, q, c1, c2, p, seed):
        """mindist(q, box) <= dist(q, x) for any x inside the box."""
        lower = np.minimum(c1, c2)
        upper = np.maximum(c1, c2)
        # Clamp p into the box.
        inside = np.clip(p, lower, upper)
        generator = np.random.default_rng(seed)
        d = q.shape[0]
        size = int(generator.integers(1, d + 1))
        dims = np.sort(generator.choice(d, size=size, replace=False))
        assert metric.mindist(q, lower, upper, dims) <= metric.point(
            q, inside, dims
        ) + 1e-9

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_mindist_zero_inside(self, metric):
        lower = np.array([0.0, 0.0])
        upper = np.array([2.0, 2.0])
        q = np.array([1.0, 1.5])
        assert metric.mindist(q, lower, upper, np.array([0, 1])) == 0.0

    def test_euclidean_mindist_manual(self):
        lower = np.array([0.0, 0.0])
        upper = np.array([1.0, 1.0])
        q = np.array([4.0, 5.0])
        expected = math.hypot(3.0, 4.0)
        assert EuclideanMetric().mindist(q, lower, upper, np.array([0, 1])) == (
            pytest.approx(expected)
        )


class TestRegistry:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("euclidean", EuclideanMetric),
            ("L2", EuclideanMetric),
            ("manhattan", ManhattanMetric),
            ("l1", ManhattanMetric),
            ("chebyshev", ChebyshevMetric),
            ("linf", ChebyshevMetric),
        ],
    )
    def test_names_resolve(self, name, cls):
        assert isinstance(get_metric(name), cls)

    def test_minkowski_spec(self):
        metric = get_metric("minkowski:3")
        assert isinstance(metric, MinkowskiMetric)
        assert metric.p == 3.0

    def test_instances_pass_through(self):
        metric = EuclideanMetric()
        assert get_metric(metric) is metric

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_metric("cosine")

    def test_bad_minkowski_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            get_metric("minkowski:abc")

    def test_minkowski_requires_p_geq_1(self):
        with pytest.raises(ConfigurationError):
            MinkowskiMetric(0.5)

    def test_non_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            get_metric(42)  # type: ignore[arg-type]


class TestOneAccumulation:
    """Every sum-reducing view of an L_p metric accumulates the same
    sequence, so a distance does not depend on the operand's shape."""

    SUM_METRICS = [EuclideanMetric(), ManhattanMetric(), MinkowskiMetric(3.0)]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_views_agree_bit_for_bit_at_every_shape(self, data):
        metric = data.draw(st.sampled_from(self.SUM_METRICS))
        d = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 4))
        X = data.draw(arrays(np.float64, (n, d), elements=FINITE))
        Q = data.draw(arrays(np.float64, (m, d), elements=FINITE))
        dims = sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1)))
        scans = np.stack([metric.pairwise(X, q, dims) for q in Q])
        select = np.zeros((m, d), dtype=bool)
        select[:, dims] = True
        assert np.array_equal(metric.pairwise_masked(X, Q, select), scans)
        for i in range(m):
            components = metric.pairwise_components(X, Q[i])[:, dims]
            assert np.array_equal(metric.reduce_components(components), scans[i])
            # q as a matrix pairs one query with each row.
            paired = metric.pairwise(X, np.repeat(Q[i : i + 1], n, axis=0), dims)
            assert np.array_equal(paired, scans[i])
            for r in range(n):
                # A one-row select is the (1, 1, d) broadcast case.
                single = metric.pairwise_masked(X[r : r + 1], Q[i : i + 1], select[i : i + 1])
                assert single.shape == (1, 1)
                assert single[0, 0] == scans[i, r]

    def test_one_row_broadcast_matches_the_scan(self):
        """The pair from the streaming repro: a (1, 1, d) broadcast once
        summed in a different order than the (n, d) scan and read one
        ulp high."""
        rng = np.random.default_rng(24)
        X = rng.normal(size=(40, 6))
        q = 0.3 * rng.normal(size=6)
        metric = EuclideanMetric()
        scan = metric.pairwise(X, q, range(6))
        select = np.ones((1, 6), dtype=bool)
        for row in range(40):
            assert metric.pairwise_masked(X[row : row + 1], q[None, :], select)[0, 0] == scan[row]
