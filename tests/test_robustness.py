"""Cross-cutting robustness: degenerate data, metric variations, bounds.

These tests poke the corners a production deployment hits first:
duplicated rows, constant columns, tiny datasets, non-default metrics,
and every combination of the search's optional machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_search import exhaustive_search
from repro.core.exceptions import ConfigurationError, DataShapeError, DimensionalityError
from repro.core.filtering import minimal_masks
from repro.core.miner import HOSMiner
from repro.core.od import ODEvaluator
from repro.core.priors import PruningPriors
from repro.core.search import DynamicSubspaceSearch
from repro.index.linear import LinearScanIndex
from repro.index.vafile import VAFile


class TestDegenerateData:
    def test_heavily_duplicated_rows(self):
        X = np.zeros((50, 4))
        X[40:] = 1.0
        miner = HOSMiner(k=3, threshold=0.5, sample_size=2).fit(X)
        result = miner.query_row(0)
        assert not result.is_outlier  # duplicates are never outliers

    def test_constant_dataset(self):
        X = np.full((30, 3), 7.0)
        miner = HOSMiner(k=3, threshold=0.1, sample_size=2).fit(X)
        assert not miner.query_row(5).is_outlier
        assert miner.detect_outliers() == []

    def test_single_constant_column(self):
        generator = np.random.default_rng(0)
        X = generator.normal(size=(100, 4))
        X[:, 2] = 3.14
        X[0, 0] += 9.0
        miner = HOSMiner(k=4, sample_size=3, threshold_quantile=0.98).fit(X)
        result = miner.query_row(0)
        assert result.is_outlier
        # The constant column can never be the distinguishing dimension.
        assert all(2 not in s.dims or len(s.dims) > 1 for s in result.minimal)

    def test_minimum_viable_dataset(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        miner = HOSMiner(k=1, threshold=10.0, sample_size=0).fit(X)
        assert not miner.query_row(0).is_outlier

    def test_d_equals_one(self):
        generator = np.random.default_rng(1)
        X = generator.normal(size=(80, 1))
        X[0] += 10.0
        miner = HOSMiner(k=3, sample_size=2, threshold_quantile=0.97).fit(X)
        result = miner.query_row(0)
        assert result.is_outlier
        assert [s.dims for s in result.minimal] == [(0,)]


class TestFitCopiesItsData:
    """A fitted miner answers for the data it was fitted on: a later write
    into the caller's array (already C-contiguous float64, so no
    conversion copied it) must not reach the index."""

    @pytest.mark.parametrize("index", ["linear", "vafile"])
    @pytest.mark.parametrize("entry", ["query_row", "query_batch"])
    def test_later_writes_to_the_input_do_not_move_answers(self, index, entry):
        X = np.random.default_rng(11).normal(size=(120, 4))
        X[0, :2] += 6.0
        pristine = X.copy()
        miner = HOSMiner(k=4, sample_size=5, index=index).fit(X)
        X[1:] *= 3.0
        reference = HOSMiner(k=4, sample_size=5, index=index, threshold=miner.threshold_)
        reference.fit(pristine)
        rows = [0, 10, 20]

        def answers(fitted):
            if entry == "query_row":
                results = [fitted.query_row(row) for row in rows]
            else:
                results = fitted.query_batch(rows).results
            return [(r.total_outlying, [s.mask for s in r.minimal]) for r in results]

        expected = answers(reference)
        assert expected[0][0] > 0  # row 0 is outlying, so the check has teeth
        assert answers(miner) == expected
        np.testing.assert_array_equal(miner.backend_.data, pristine)


class TestHugeMagnitudes:
    """A coordinate whose square overflows float64 (|x| > ~1.3e154) gives
    an inf distance component. Inside the GEMM a masked-out inf
    component is 0 * inf = NaN, and top-k selection would drop a true
    neighbour; the work unit answers such queries exactly instead."""

    @staticmethod
    def data():
        X = np.random.default_rng(3).normal(size=(60, 4))
        X[7, 0] = 1e300
        twin = X[7].copy()
        twin[0] = 0.0  # row 7's nearest neighbour in every subspace without dim 0
        return np.vstack([X, twin])

    @pytest.mark.parametrize("threshold", [0.6, 1.0, 1.8])
    def test_answers_match_exhaustive_search(self, threshold):
        X = self.data()
        row = X.shape[0] - 1
        with HOSMiner(k=3, sample_size=0, threshold=threshold).fit(X) as miner:
            assert miner.kernel_ == "gemm"
            oracle = exhaustive_search(
                ODEvaluator(miner.backend_, X[row], 3, exclude=row), threshold
            )
            want = (sorted(minimal_masks(oracle.outlying_masks)), len(oracle.outlying_masks))
            for result in (
                miner.query_row(row),
                miner.query_batch([row], workers=1).results[0],
                miner.query_batch([row], workers=2).results[0],
            ):
                got = (sorted(s.mask for s in result.minimal), result.total_outlying)
                assert got == want


class TestNonFiniteInput:
    """NaN and inf are rejected at the API boundary, naming the row and
    column, before any state changes."""

    @pytest.fixture()
    def miner(self):
        X = np.random.default_rng(8).normal(size=(40, 3))
        with HOSMiner(k=3, sample_size=0, threshold=2.0).fit(X) as miner:
            yield miner

    def test_fit(self):
        X = np.random.default_rng(8).normal(size=(40, 3))
        X[7, 2] = np.nan
        with pytest.raises(DataShapeError, match="data row 7, column 2 is nan"):
            HOSMiner(k=3, sample_size=0, threshold=2.0).fit(X)

    def test_extend(self, miner):
        rows = np.zeros((2, 3))
        rows[1, 0] = np.inf
        with pytest.raises(DataShapeError, match="new row 1, column 0 is inf"):
            miner.extend(rows)
        assert miner.backend_.size == 40

    def test_insert(self, miner):
        rows = np.zeros((3, 3))
        rows[2, 1] = -np.inf
        with pytest.raises(DataShapeError, match="new row 2, column 1 is -inf"):
            miner.insert(rows)
        assert miner.backend_.size == 40

    def test_stream_push(self, miner):
        from repro.core.stream import StreamEngine

        engine = StreamEngine(miner, window=40)
        with pytest.raises(DataShapeError, match="new row 0, column 1 is nan"):
            engine.push(np.array([[0.0, np.nan, 0.0]]))
        assert engine.pushes == 0 and engine.occupancy == 40

    def test_query_point(self, miner):
        with pytest.raises(DataShapeError, match="query point, column 2 is nan"):
            miner.query_point(np.array([0.0, 0.0, np.nan]))

    def test_query_batch(self, miner):
        point = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(DataShapeError, match="target 1, column 0 is nan"):
            miner.query_batch([0, point])
        with pytest.raises(DataShapeError, match="target 0, column 0 is nan"):
            miner.query_batch(point[None, :])


def _unconvertible(kind: str, d: int = 3):
    """Input no float matrix can hold: non-numeric strings, ragged rows,
    or complex numbers (whose cast would keep only the real part)."""
    if kind == "strings":
        return [["a", "b", "c"][:d]]
    if kind == "ragged":
        return [[0.0] * d, [0.0] * (d - 1)]
    return np.ones((2, d)) + 1j


def _entry_points():
    """``(entry, kind)`` cases; ``query_point`` and ``query_batch``
    rejected strings and ragged input with a DataShapeError already
    (``tests/test_batch.py::TestEvaluatorValidation``)."""
    kinds = ("strings", "ragged", "complex")
    cases = [(entry, kind) for entry in ("fit", "extend", "insert", "push") for kind in kinds]
    return cases + [("query_point", "complex"), ("query_batch", "complex")]


class TestUnconvertibleInput:
    """Data, rows and points that cannot become a float64 array fail
    with a DataShapeError at every entry point, before any state
    changes."""

    @pytest.mark.parametrize("entry, kind", _entry_points())
    def test_rejected_with_a_typed_error(self, entry, kind):
        from repro.core.stream import StreamEngine

        X = np.random.default_rng(8).normal(size=(40, 3))
        if entry == "fit":
            data = _unconvertible(kind)
            if kind == "complex":
                data = X + 1j
            with pytest.raises(DataShapeError, match="complex|converted"):
                HOSMiner(k=3, sample_size=0, threshold=2.0).fit(data)
            return
        with HOSMiner(k=3, sample_size=0, threshold=2.0).fit(X) as miner:
            bad = _unconvertible(kind)
            calls = {
                "extend": lambda: miner.extend(bad),
                "insert": lambda: miner.insert(bad),
                "push": lambda: StreamEngine(miner, window=40).push(bad),
                "query_point": lambda: miner.query_point(np.ones(3) + 1j),
                "query_batch": lambda: miner.query_batch(bad),
            }
            with pytest.raises(DataShapeError, match="complex|converted"):
                calls[entry]()
            assert miner.backend_.size == 40


class TestSearchOutcomeBoundary:
    """search_outcome resolves its target through the same API-boundary
    checks as query_row and query_point."""

    @pytest.fixture()
    def miner(self):
        X = np.random.default_rng(3).normal(size=(200, 4))
        return HOSMiner(k=5, sample_size=5).fit(X)

    def test_non_finite_point(self, miner):
        with pytest.raises(DataShapeError, match="query point, column 0 is nan"):
            miner.search_outcome(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_negative_row(self, miner):
        with pytest.raises(ConfigurationError, match="row -1 out of range for n=200"):
            miner.search_outcome(-1)

    def test_row_past_the_end(self, miner):
        with pytest.raises(ConfigurationError, match="row 500 out of range for n=200"):
            miner.search_outcome(500)


class TestDegenerateConfigValues:
    """Degenerate knob values fail with a ConfigurationError at the API
    boundary instead of answering silently wrong or raising a raw numpy
    error later."""

    @pytest.fixture(scope="class")
    def miner(self):
        X = np.random.default_rng(5).normal(size=(60, 3))
        return HOSMiner(k=3, sample_size=2, threshold=2.0).fit(X)

    @pytest.mark.parametrize(
        "entry", ["config", "search", "exhaustive", "fixed_order", "profile"]
    )
    def test_nan_threshold(self, miner, entry):
        from repro.baselines.naive_search import fixed_order_search
        from repro.core.profile import compute_od_profile

        evaluator = ODEvaluator(miner.backend_, miner.backend_.data[0], 3, exclude=0)
        calls = {
            "config": lambda: HOSMiner(threshold=float("nan")),
            "search": lambda: DynamicSubspaceSearch(
                evaluator, float("nan"), PruningPriors.uniform(3)
            ),
            "exhaustive": lambda: exhaustive_search(evaluator, float("nan")),
            "fixed_order": lambda: fixed_order_search(evaluator, float("nan")),
            "profile": lambda: compute_od_profile(evaluator, float("nan")),
        }
        with pytest.raises(ConfigurationError, match="threshold must be a non-negative"):
            calls[entry]()

    @pytest.mark.parametrize(
        "name,value",
        [
            ("k", True),
            ("k", 2.5),
            ("sample_size", 2.5),
            ("sample_size", True),
            ("threshold_sample", 2.5),
            ("workers", 1.5),
            ("workers", True),
            ("seed", 1.5),
        ],
    )
    def test_non_integral_knob(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            HOSMiner(**{name: value})

    @pytest.mark.parametrize("value", [True, 2.5, float("nan"), "3"])
    def test_non_integral_max_results(self, miner, value):
        with pytest.raises(ConfigurationError, match="max_results must be an integer"):
            miner.detect_outliers(max_results=value)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integral_max_evaluations(self, miner, value):
        evaluator = ODEvaluator(miner.backend_, miner.backend_.data[0], 3, exclude=0)
        with pytest.raises(ConfigurationError, match="max_evaluations must be an integer"):
            DynamicSubspaceSearch(
                evaluator, 2.0, PruningPriors.uniform(3), max_evaluations=value
            )

    @pytest.mark.parametrize("name", ["adaptive_prior_weight"])
    def test_nan_fails_positivity_checks(self, miner, name):
        """A NaN compares false both ways, so every positivity check is
        written to fail on it."""
        evaluator = ODEvaluator(miner.backend_, miner.backend_.data[0], 3, exclude=0)
        with pytest.raises(ConfigurationError, match=name):
            DynamicSubspaceSearch(
                evaluator, 2.0, PruningPriors.uniform(3), **{name: float("nan")}
            )

    def test_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            HOSMiner(seed=-1)

    @pytest.mark.parametrize("entry", ["config", "search"])
    def test_adaptive_must_be_a_bool(self, miner, entry):
        evaluator = ODEvaluator(miner.backend_, miner.backend_.data[0], 3, exclude=0)
        with pytest.raises(ConfigurationError, match="adaptive must be a bool"):
            if entry == "config":
                HOSMiner(adaptive="no")
            else:
                DynamicSubspaceSearch(evaluator, 2.0, PruningPriors.uniform(3), adaptive="no")

    @pytest.mark.parametrize("entry", ["fit", "calibrate"])
    def test_dimensionality_beyond_the_mask_caps(self, entry):
        """Masks are int64 and the lattice is materialised, so a fit
        above the lattice cap fails before building anything, and a
        full-space request beyond int64 masks fails typed (never with a
        raw OverflowError)."""
        from repro.core.lattice import MAX_LATTICE_DIM
        from repro.core.miner import calibrate_threshold

        rng = np.random.default_rng(8)
        with pytest.raises(DimensionalityError):
            if entry == "fit":
                X = rng.normal(size=(30, MAX_LATTICE_DIM + 1))
                HOSMiner(k=3, sample_size=0).fit(X)
            else:
                X = rng.normal(size=(30, 70))
                calibrate_threshold(LinearScanIndex(X), X, 3)

    @pytest.mark.parametrize("value", [100.5, float("nan")])
    @pytest.mark.parametrize("entry", ["config", "engine"])
    def test_non_integral_stream_window(self, miner, entry, value):
        from repro.core.stream import StreamEngine

        with pytest.raises(ConfigurationError, match="window must be an integer"):
            if entry == "config":
                HOSMiner(stream_window=value)
            else:
                StreamEngine(miner, window=value)

    @pytest.mark.parametrize("call", ["query", "query_row", "query_batch", "search_outcome"])
    def test_bool_row_id(self, miner, call):
        with pytest.raises(ConfigurationError, match="row must be an integer, got True"):
            if call == "query_batch":
                miner.query_batch([True])
            else:
                getattr(miner, call)(True)

    @pytest.mark.parametrize("count", [1.5, True])
    def test_non_integral_expire(self, count):
        X = np.random.default_rng(6).normal(size=(30, 3))
        miner = HOSMiner(k=3, sample_size=0, threshold=2.0).fit(X)
        with pytest.raises(ConfigurationError, match="n_oldest must be an integer"):
            miner.expire(count)
        assert miner.backend_.size == 30

    def test_numpy_integers_stay_accepted(self, miner):
        config = dict(k=np.int64(3), sample_size=np.int32(2), threshold_sample=np.int64(50))
        fitted = HOSMiner(workers=np.int64(1), threshold=2.0, **config).fit(
            miner.backend_.data
        )
        assert fitted.query(np.int64(4)).minimal == miner.query_row(4).minimal
        assert fitted.query_batch(np.array([4])).results[0].minimal == miner.query_row(4).minimal


class TestMetricVariations:
    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "minkowski:3"])
    def test_pipeline_matches_oracle_under_any_metric(self, metric):
        generator = np.random.default_rng(5)
        X = generator.normal(size=(150, 5))
        X[0, :2] += 8.0
        miner = HOSMiner(
            k=4, sample_size=3, threshold_quantile=0.98, metric=metric
        ).fit(X)
        result = miner.query_row(0)
        evaluator = ODEvaluator(miner.backend_, X[0], 4, exclude=0)
        oracle = exhaustive_search(evaluator, miner.threshold_)
        assert result.total_outlying == len(oracle.outlying_masks)

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev"])
    def test_tree_backends_honour_metric(self, metric):
        generator = np.random.default_rng(6)
        X = generator.normal(size=(200, 4))
        from repro.index import RStarTree

        tree = RStarTree(X, metric=metric, max_entries=8)
        scan = LinearScanIndex(X, metric=metric)
        ti, td = tree.knn(X[3], 6, (0, 2), exclude=3)
        si, sd = scan.knn(X[3], 6, (0, 2), exclude=3)
        assert list(ti) == list(si)
        np.testing.assert_allclose(td, sd)


class TestVAFileBounds:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), bits=st.integers(2, 8))
    def test_bound_sandwich(self, seed, bits):
        """For every point: lower bound <= exact distance <= upper bound."""
        generator = np.random.default_rng(seed)
        X = generator.normal(size=(80, 4))
        va = VAFile(X, bits=bits)
        q = generator.normal(size=4)
        dims = np.array([0, 2, 3])
        lower, upper = va._bounds(q, dims)
        exact = va.metric.pairwise(X, q, dims)
        assert np.all(lower <= exact + 1e-9)
        assert np.all(exact <= upper + 1e-9)


class TestSearchMachineryCombinations:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        adaptive=st.booleans(),
        reselect=st.sampled_from(["level", "evaluation"]),
        weight=st.floats(0.5, 50.0),
    )
    def test_every_combination_is_exact(self, seed, adaptive, reselect, weight):
        generator = np.random.default_rng(seed)
        X = generator.normal(size=(60, 5))
        X[0, :2] += generator.uniform(0, 6)
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 3, exclude=0)
        threshold = 0.8 * evaluator.od((1 << 5) - 1)
        oracle = frozenset(exhaustive_search(evaluator, threshold).outlying_masks)
        outcome = DynamicSubspaceSearch(
            evaluator,
            threshold,
            PruningPriors.uniform(5),
            reselect=reselect,
            adaptive=adaptive,
            adaptive_prior_weight=weight,
        ).run()
        assert frozenset(outcome.outlying_masks) == oracle

    def test_external_query_point_never_excluded(self):
        """query_point must not exclude any dataset row, even one that is
        byte-identical to the query."""
        X = np.zeros((20, 3))
        X[10:] = 2.0
        miner = HOSMiner(k=2, threshold=0.5, sample_size=0).fit(X)
        result = miner.query_point(np.zeros(3))
        assert not result.is_outlier  # zero-distance duplicates exist

    def test_repeated_queries_are_stable(self, fitted_miner):
        first = fitted_miner.query_row(0)
        second = fitted_miner.query_row(0)
        assert [s.mask for s in first.minimal] == [s.mask for s in second.minimal]
        assert first.total_outlying == second.total_outlying
