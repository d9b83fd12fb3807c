"""Linear-scan backend: exactness, exclusion, accounting, validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError, DataShapeError
from repro.index.linear import BLOCK_ROWS, LinearScanIndex


@pytest.fixture(scope="module")
def index():
    generator = np.random.default_rng(5)
    X = generator.normal(size=(130, 4))
    return LinearScanIndex(X), X


class TestKnn:
    def test_matches_numpy_reference(self, index):
        backend, X = index
        q = X[3]
        dims = (0, 2)
        indices, distances = backend.knn(q, 7, dims, exclude=3)
        reference = np.sqrt(((X[:, dims] - q[list(dims)]) ** 2).sum(axis=1))
        reference[3] = np.inf
        order = np.lexsort((np.arange(len(reference)), reference))[:7]
        np.testing.assert_array_equal(indices, order)
        np.testing.assert_allclose(distances, reference[order])

    def test_distances_sorted_and_exclude_respected(self, index):
        backend, X = index
        indices, distances = backend.knn(X[0], 10, (0, 1, 2, 3), exclude=0)
        assert 0 not in indices
        assert list(distances) == sorted(distances)

    def test_k_equal_n_minus_one(self, index):
        backend, X = index
        indices, _ = backend.knn(X[0], 129, (0, 1), exclude=0)
        assert len(indices) == 129

    def test_duplicate_ties_break_by_row(self):
        X = np.zeros((6, 2))
        backend = LinearScanIndex(X)
        indices, distances = backend.knn(np.zeros(2), 3, (0, 1))
        assert list(indices) == [0, 1, 2]
        assert list(distances) == [0.0, 0.0, 0.0]

    def test_k_validation(self, index):
        backend, X = index
        with pytest.raises(ConfigurationError):
            backend.knn(X[0], 0, (0,))
        with pytest.raises(ConfigurationError):
            backend.knn(X[0], 130, (0,), exclude=0)

    def test_dims_validation(self, index):
        backend, X = index
        with pytest.raises(ConfigurationError):
            backend.knn(X[0], 3, ())
        with pytest.raises(ConfigurationError):
            backend.knn(X[0], 3, (0, 9))

    def test_query_shape_validation(self, index):
        backend, _ = index
        with pytest.raises(DataShapeError):
            backend.knn(np.zeros(3), 3, (0,))


class TestRange:
    def test_matches_numpy_reference(self, index):
        backend, X = index
        q = X[10]
        hits = backend.range_query(q, 1.0, (0, 1), exclude=10)
        reference = np.sqrt(((X[:, (0, 1)] - q[[0, 1]]) ** 2).sum(axis=1))
        expected = set(np.flatnonzero(reference <= 1.0)) - {10}
        assert set(hits) == expected

    def test_radius_zero_finds_duplicates(self):
        X = np.zeros((4, 2))
        backend = LinearScanIndex(X)
        assert set(backend.range_query(np.zeros(2), 0.0, (0, 1))) == {0, 1, 2, 3}

    def test_negative_radius_rejected(self, index):
        backend, X = index
        with pytest.raises(ConfigurationError):
            backend.range_query(X[0], -1.0, (0,))


class TestAccounting:
    def test_stats_per_query(self):
        X = np.random.default_rng(0).normal(size=(130, 3))
        backend = LinearScanIndex(X)
        backend.knn(X[0], 3, (0, 1), exclude=0)
        assert backend.stats.knn_queries == 1
        assert backend.stats.distance_computations == 130
        assert backend.stats.node_accesses == -(-130 // BLOCK_ROWS)
        backend.range_query(X[0], 1.0, (0,))
        assert backend.stats.range_queries == 1
        assert backend.stats.distance_computations == 260

    def test_reset(self):
        X = np.zeros((10, 2))
        backend = LinearScanIndex(X)
        backend.knn(np.zeros(2), 2, (0,))
        backend.stats.reset()
        assert backend.stats.snapshot()["distance_computations"] == 0


class TestConstruction:
    def test_rejects_bad_shapes(self):
        with pytest.raises(DataShapeError):
            LinearScanIndex(np.zeros((0, 3)))
        with pytest.raises(DataShapeError):
            LinearScanIndex(np.zeros(5))

    def test_data_view_read_only(self, index):
        backend, _ = index
        with pytest.raises(ValueError):
            backend.data[0, 0] = 99.0

    def test_repr(self, index):
        backend, _ = index
        assert "LinearScanIndex" in repr(backend)


class TestFullSpaceUnit:
    """knn_full_prefix_batch: every prefix is the exact scan's, bit for bit."""

    @staticmethod
    def assert_matches_knn(backend, queries, k, excludes):
        got = backend.knn_full_prefix_batch(queries, k, excludes)
        for i, (query, exclude) in enumerate(zip(queries, excludes)):
            _, expected = backend.knn(query, k, range(backend.d), exclude=exclude)
            np.testing.assert_array_equal(got[i], expected)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_prefixes_equal_knn(self, data):
        k = data.draw(st.integers(1, 12), label="k")
        n = data.draw(st.integers(k + 1, k + 40), label="n")
        d = data.draw(st.integers(1, 20), label="d")
        kind = data.draw(
            st.sampled_from(["plain", "ties", "duplicates", "offset", "tiny"]), label="kind"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.normal(size=(n, d))
        if kind == "ties":
            X = np.round(X)  # many exactly equal distances
        elif kind == "duplicates":
            X[n // 2 :] = X[: n - n // 2]
        elif kind == "offset":
            X += 1e6
        elif kind == "tiny":
            X *= 1e-150
        rows = rng.choice(n, size=min(n, 6), replace=False)
        points = X[rng.integers(n, size=4)] + rng.normal(scale=0.3, size=(4, d)) * X.std()
        queries = np.vstack([X[rows], points, X[rows[:1]]])  # the last: a row as a point
        excludes = [int(row) for row in rows] + [None] * 5
        backend = LinearScanIndex(X)
        self.assert_matches_knn(backend, queries, k, excludes)
        # The screen settles every finite query itself.
        settled = backend._gram_screen(
            queries, k, excludes, np.arange(d), np.empty((queries.shape[0], k))
        )
        assert settled.all()

    @staticmethod
    def held_bytes(backend):
        """Bytes the screen keeps between calls: its workspace and its
        resident operand."""
        held = 0 if backend._workspace is None else backend._workspace.nbytes
        if backend._resident is not None:
            held += sum(part.nbytes for part in backend._resident if isinstance(part, np.ndarray))
        return held

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_resident_operand_follows_every_data_change(self, data):
        """Inserts (in capacity and through buffer growth), expiries and
        pickle round-trips between multi-query calls: every prefix stays
        the scan's, and the screen holds no more than its block, the
        centred rows, their norms and the centre."""
        import pickle

        from repro.index.linear import FULL_SPACE_BLOCK_BYTES

        k = data.draw(st.integers(1, 5), label="k")
        d = data.draw(st.integers(1, 6), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        backend = LinearScanIndex(rng.normal(size=(data.draw(st.integers(k + 2, 30)), d)))
        ops = st.sampled_from(["insert", "insert", "expire", "pickle"])
        for op in data.draw(st.lists(ops, min_size=1, max_size=8), label="ops"):
            if op == "insert":
                for row in rng.normal(size=(int(rng.integers(1, 12)), d)):
                    backend.insert(row)
            elif op == "expire" and backend.size > k + 2:
                backend.expire(int(rng.integers(1, backend.size - k - 1)))
            elif op == "pickle":
                backend = pickle.loads(pickle.dumps(backend))
                assert backend._workspace is None and backend._resident is None
            n = backend.size
            rows = rng.choice(n, size=min(n, 3), replace=False)
            queries = np.vstack([backend.data[rows], rng.normal(size=(2, d))])
            self.assert_matches_knn(backend, queries, k, [int(row) for row in rows] + [None] * 2)
            assert self.held_bytes(backend) <= FULL_SPACE_BLOCK_BYTES + 8 * n * d + 8 * n + 8 * d
        assert pickle.loads(pickle.dumps(backend))._workspace is None

    def test_batch_traffic_rows_at_k1(self):
        """At k=1 nearly every selection has one candidate; a refine
        through a one-row ``einsum`` instead of ``pairwise`` disagrees
        with the scan on 20 of these 96 rows."""
        from repro.data.synthetic import make_planted_outliers

        X = make_planted_outliers(n=8000, d=12, n_outliers=16, subspace_dims=(2, 3), seed=1).X
        rng = np.random.default_rng(7)
        rows = rng.choice(X.shape[0], size=64, replace=False)
        points = X[rng.integers(X.shape[0], size=32)] + rng.normal(scale=0.05, size=(32, 12))
        queries = np.vstack([X[rows], points])
        self.assert_matches_knn(
            LinearScanIndex(X), queries, 1, [int(row) for row in rows] + [None] * 32
        )

    def test_huge_magnitudes_take_the_scan(self, rng):
        X = rng.normal(size=(30, 5)) * 1e160  # squares overflow float64
        backend = LinearScanIndex(X)
        queries, excludes = X[:4], [0, 1, 2, 3]
        out = np.empty((4, 3))
        assert not backend._gram_screen(queries, 3, excludes, np.arange(5), out).any()
        self.assert_matches_knn(backend, queries, 3, excludes)

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "minkowski:3"])
    def test_other_metrics_scan_exactly(self, metric, rng):
        X = rng.normal(size=(40, 4))
        self.assert_matches_knn(LinearScanIndex(X, metric=metric), X[:5], 4, [0, 1, 2, 3, 4])

    def test_validation_and_accounting(self, rng):
        X = rng.normal(size=(30, 3))
        backend = LinearScanIndex(X)
        with pytest.raises(DataShapeError):
            backend.knn_full_prefix_batch(rng.normal(size=(2, 4)), 2)
        with pytest.raises(ConfigurationError):
            backend.knn_full_prefix_batch(X[:2], 30, [0, 1])
        backend.stats.reset()
        backend.knn_full_prefix_batch(X[:3], 2, [0, 1, 2])
        assert backend.stats.knn_queries == 3
        assert backend.stats.distance_computations == 3 * 30
        assert backend.knn_full_prefix_batch(np.empty((0, 3)), 2).shape == (0, 2)
