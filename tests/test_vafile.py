"""VA-file backend: exact parity with the scan, bounds, growth."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError, DataShapeError
from repro.index.linear import LinearScanIndex
from repro.index.vafile import VAFile


def _data(seed, n=300, d=6):
    generator = np.random.default_rng(seed)
    return generator.normal(size=(n, d)) + generator.choice(
        [-5.0, 0.0, 5.0], size=(n, 1)
    )


class TestConstruction:
    @pytest.mark.parametrize("partitioning", ["equi_width", "equi_depth"])
    def test_boundaries_cover_data(self, partitioning):
        X = _data(0)
        va = VAFile(X, bits=4, partitioning=partitioning)
        assert va.cells == 16
        for dim in range(va.d):
            assert va.boundaries[dim][0] <= X[:, dim].min()
            assert va.boundaries[dim][-1] >= X[:, dim].max()
            assert np.all(np.diff(va.boundaries[dim]) >= 0)

    def test_codes_in_range(self):
        va = VAFile(_data(1), bits=3)
        assert va._codes.data.max() < 8

    def test_constant_column_safe(self):
        X = np.ones((50, 2))
        X[:, 1] = np.arange(50)
        va = VAFile(X, bits=4)
        indices, _ = va.knn(X[0], 3, (0, 1), exclude=0)
        assert len(indices) == 3

    def test_validation(self):
        X = _data(2)
        with pytest.raises(ConfigurationError):
            VAFile(X, bits=0)
        with pytest.raises(ConfigurationError):
            VAFile(X, partitioning="hilbert")
        with pytest.raises(DataShapeError):
            VAFile(np.zeros((0, 3)))

    def test_custom_metric_rejected(self):
        class WeirdMetric:
            name = "weird"

            def pairwise(self, X, q, dims):  # pragma: no cover
                return np.zeros(len(X))

            def point(self, a, b, dims):  # pragma: no cover
                return 0.0

            def mindist(self, q, lower, upper, dims):  # pragma: no cover
                return 0.0

        with pytest.raises(ConfigurationError):
            VAFile(_data(3), metric=WeirdMetric())

    def test_repr(self):
        assert "VAFile" in repr(VAFile(_data(4), bits=5))


class TestQueryParity:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev", "minkowski:3"])
    @pytest.mark.parametrize("partitioning", ["equi_width", "equi_depth"])
    def test_knn_parity_all_metrics(self, metric, partitioning):
        X = _data(5)
        va = VAFile(X, metric=metric, bits=5, partitioning=partitioning)
        scan = LinearScanIndex(X, metric=metric)
        for row in [0, 42, 123]:
            for dims in [(0,), (1, 4), (0, 2, 3, 5)]:
                vi, vd = va.knn(X[row], 7, dims, exclude=row)
                si, sd = scan.knn(X[row], 7, dims, exclude=row)
                assert list(vi) == list(si), (metric, dims, row)
                np.testing.assert_allclose(vd, sd)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 12), bits=st.integers(1, 8))
    def test_knn_parity_property(self, seed, k, bits):
        X = _data(seed, n=120, d=4)
        va = VAFile(X, bits=bits)
        scan = LinearScanIndex(X)
        generator = np.random.default_rng(seed + 1)
        size = int(generator.integers(1, 5))
        dims = tuple(sorted(generator.choice(4, size=size, replace=False)))
        row = int(generator.integers(0, 120))
        vi, _ = va.knn(X[row], k, dims, exclude=row)
        si, _ = scan.knn(X[row], k, dims, exclude=row)
        assert list(vi) == list(si)

    def test_range_parity(self):
        X = _data(9)
        va = VAFile(X, bits=5)
        scan = LinearScanIndex(X)
        for radius in [0.0, 0.5, 3.0, 50.0]:
            vr = va.range_query(X[7], radius, (0, 3), exclude=7)
            sr = scan.range_query(X[7], radius, (0, 3), exclude=7)
            assert sorted(vr) == sorted(sr)

    def test_duplicate_ties_deterministic(self):
        X = np.zeros((8, 2))
        va = VAFile(X, bits=2)
        indices, distances = va.knn(np.zeros(2), 4, (0, 1))
        assert list(indices) == [0, 1, 2, 3]
        np.testing.assert_array_equal(distances, 0.0)


class TestFiltering:
    def test_refines_fewer_than_all(self):
        """The whole point of the VA-file: far fewer exact distances than
        a full scan, with identical answers."""
        X = _data(11, n=2000, d=8)
        va = VAFile(X, bits=6)
        va.stats.reset()
        va.knn(X[0], 5, tuple(range(8)), exclude=0)
        assert va.stats.distance_computations < 0.25 * 2000
        assert 0 < va.candidate_fraction() < 0.25

    def test_more_bits_tighter_bounds(self):
        X = _data(13, n=1500, d=6)
        fractions = []
        for bits in (2, 4, 8):
            va = VAFile(X, bits=bits)
            va.knn(X[3], 5, (0, 1, 2, 3, 4, 5), exclude=3)
            fractions.append(va.candidate_fraction())
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_candidate_fraction_zero_before_queries(self):
        assert VAFile(_data(14), bits=4).candidate_fraction() == 0.0


class TestGrowth:
    def test_insert_preserves_parity(self):
        X = _data(15, n=150, d=4)
        va = VAFile(X, bits=5)
        generator = np.random.default_rng(99)
        new_points = generator.normal(size=(30, 4)) * 3.0  # some out of range
        for point in new_points:
            va.insert(point)
        assert va.size == 180
        full = np.vstack([X, new_points])
        scan = LinearScanIndex(full)
        for row in [0, 160, 179]:
            vi, _ = va.knn(full[row], 6, (0, 1, 2, 3), exclude=row)
            si, _ = scan.knn(full[row], 6, (0, 1, 2, 3), exclude=row)
            assert list(vi) == list(si)

    def test_insert_shape_checked(self):
        va = VAFile(_data(16), bits=4)
        with pytest.raises(DataShapeError):
            va.insert(np.zeros(3))


class TestValidationAtQueryTime:
    def test_k_and_dims_checked(self):
        X = _data(17, n=30)
        va = VAFile(X, bits=4)
        with pytest.raises(ConfigurationError):
            va.knn(X[0], 0, (0,))
        with pytest.raises(ConfigurationError):
            va.knn(X[0], 30, (0,), exclude=0)
        with pytest.raises(ConfigurationError):
            va.knn(X[0], 3, ())
        with pytest.raises(ConfigurationError):
            va.range_query(X[0], -1.0, (0,))
        with pytest.raises(DataShapeError):
            va.knn(np.zeros(2), 3, (0,))
