"""The HOSMiner facade: lifecycle, validation, query surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HOSMinerConfig
from repro.core.exceptions import (
    ConfigurationError,
    DataShapeError,
    NotFittedError,
)
from repro.core.miner import HOSMiner, calibrate_threshold
from repro.index.linear import LinearScanIndex


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"threshold": -2.0},
            {"threshold_quantile": 1.0},
            {"threshold_quantile": 0.0},
            {"threshold_sample": 0},
            {"index": "btree"},
            {"sample_size": -1},
            {"reselect": "sometimes"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HOSMinerConfig(**kwargs)

    def test_config_object_and_overrides_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            HOSMiner(HOSMinerConfig(), k=3)

    def test_defaults_are_paper_faithful(self):
        config = HOSMinerConfig()
        assert config.adaptive is False
        assert config.reselect == "level"
        assert config.index == "linear"


class TestLifecycle:
    def test_query_before_fit_raises(self):
        miner = HOSMiner(k=3)
        with pytest.raises(NotFittedError):
            miner.query_row(0)
        with pytest.raises(NotFittedError):
            _ = miner.threshold_

    def test_fit_rejects_bad_shapes(self):
        with pytest.raises(DataShapeError):
            HOSMiner(k=1, sample_size=0).fit(np.zeros((1, 3)))
        with pytest.raises(DataShapeError):
            HOSMiner(k=1, sample_size=0).fit(np.zeros(5))

    def test_fit_rejects_k_too_large(self):
        with pytest.raises(ConfigurationError):
            HOSMiner(k=10, sample_size=0).fit(np.zeros((5, 2)))

    def test_fit_rejects_wrong_feature_name_count(self, small_gaussian):
        with pytest.raises(ConfigurationError):
            HOSMiner(k=3, sample_size=0).fit(small_gaussian, feature_names=["a"])

    def test_fit_returns_self_and_sets_state(self, small_gaussian):
        miner = HOSMiner(k=3, sample_size=2, threshold_quantile=0.98)
        assert miner.fit(small_gaussian) is miner
        assert miner.threshold_ > 0
        assert miner.priors_.d == 5
        assert miner.backend_.size == 300
        assert miner.d_ == 5
        assert miner.fit_time_s > 0
        assert "fitted" in repr(miner)

    def test_explicit_threshold_skips_calibration(self, small_gaussian):
        miner = HOSMiner(k=3, threshold=42.0, sample_size=0).fit(small_gaussian)
        assert miner.threshold_ == 42.0


class TestQueries:
    def test_planted_outlier_found(self, small_gaussian):
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.99).fit(
            small_gaussian
        )
        result = miner.query_row(0)
        assert result.is_outlier
        found_dims = set()
        for subspace in result.minimal:
            found_dims.update(subspace.dims)
        assert found_dims <= {0, 1}  # the planted dimensions

    def test_typical_inlier_clean(self, small_gaussian):
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.99).fit(
            small_gaussian
        )
        result = miner.query_row(57)
        assert not result.is_outlier

    def test_query_dispatch(self, small_gaussian):
        miner = HOSMiner(k=3, sample_size=0, threshold_quantile=0.98).fit(
            small_gaussian
        )
        by_row = miner.query(0)
        by_point = miner.query(small_gaussian[0])
        # The row version excludes the point itself, the vector version
        # cannot (it is external), so the row version sees higher ODs and
        # at least as many outlying subspaces.
        assert by_row.total_outlying >= by_point.total_outlying

    def test_query_row_bounds_checked(self, fitted_miner):
        with pytest.raises(ConfigurationError):
            fitted_miner.query_row(10_000)

    def test_search_outcome_exposes_lattice(self, fitted_miner):
        outcome, evaluator = fitted_miner.search_outcome(0)
        assert outcome.d == fitted_miner.d_
        assert evaluator.evaluations == outcome.stats.od_evaluations

    def test_minimal_od_values_present_and_above_threshold(self, fitted_miner):
        result = fitted_miner.query_row(0)
        assert result.is_outlier
        for subspace in result.minimal:
            assert result.od_values[subspace] >= result.threshold

    def test_backends_agree(self, planted_dataset):
        X = planted_dataset.X
        results = {}
        for index in ("linear", "rstar", "xtree"):
            miner = HOSMiner(
                k=4, sample_size=0, threshold=8.0, index=index,
                index_options={} if index == "linear" else {"max_entries": 16},
            ).fit(X)
            result = miner.query_row(0)
            results[index] = {s.mask for s in result.minimal}
        assert results["linear"] == results["rstar"] == results["xtree"]

    def test_adaptive_answers_identical(self, planted_dataset):
        X = planted_dataset.X
        plain = HOSMiner(k=4, sample_size=3, threshold=8.0).fit(X)
        adaptive = HOSMiner(k=4, sample_size=3, threshold=8.0, adaptive=True).fit(X)
        for row in [0, 1, 2, 50, 51]:
            a = {s.mask for s in plain.query_row(row).minimal}
            b = {s.mask for s in adaptive.query_row(row).minimal}
            assert a == b


class TestCalibration:
    def test_threshold_is_full_space_quantile(self, rng):
        X = rng.normal(size=(100, 3))
        backend = LinearScanIndex(X)
        threshold = calibrate_threshold(backend, X, 3, quantile=0.5, sample=100)
        from repro.core.od import outlying_degree

        ods = [
            outlying_degree(backend, X[row], 3, (0, 1, 2), exclude=row)
            for row in range(100)
        ]
        assert threshold == pytest.approx(float(np.quantile(ods, 0.5)))

    def test_sampled_calibration_deterministic(self, rng):
        X = rng.normal(size=(200, 3))
        backend = LinearScanIndex(X)
        a = calibrate_threshold(backend, X, 3, sample=50, seed=5)
        b = calibrate_threshold(backend, X, 3, sample=50, seed=5)
        assert a == b

    def test_quantile_validated(self, rng):
        X = rng.normal(size=(50, 3))
        backend = LinearScanIndex(X)
        with pytest.raises(ConfigurationError):
            calibrate_threshold(backend, X, 3, quantile=1.5)


class TestZeroCalibratedThreshold:
    """A calibrated T of 0 would make every subspace of every point
    outlying; fit refuses it and points at an explicit threshold."""

    @pytest.mark.parametrize(
        "X",
        [
            np.zeros((20, 3)),
            # 10 distinct rows, each repeated 6 times: k=5 exact duplicates.
            np.repeat(np.random.default_rng(0).normal(size=(10, 3)), 6, axis=0),
        ],
        ids=["all-zero", "repeated-rows"],
    )
    def test_fit_raises_and_leaves_the_miner_unfitted(self, X):
        miner = HOSMiner(k=5)
        with pytest.raises(ConfigurationError, match=r"threshold_quantile=0\.995.*threshold="):
            miner.fit(X)
        with pytest.raises(NotFittedError):
            miner.query_row(0)

    def test_failed_refit_leaves_the_miner_unfitted(self, small_gaussian):
        miner = HOSMiner(k=5, sample_size=0).fit(small_gaussian)
        with pytest.raises(ConfigurationError):
            miner.fit(np.zeros((20, 3)))
        with pytest.raises(NotFittedError):
            miner.detect_outliers()

    @pytest.mark.parametrize("refresh", ["threshold", "full"])
    def test_extend_refresh_raises_before_replacing_t(self, refresh):
        """20 normal rows plus 4000 copies of row 0 calibrate to T = 0:
        a refreshing extend refuses it as fit does, and the miner keeps
        its previous T and priors over the grown data."""
        X = np.random.default_rng(0).normal(size=(20, 4))
        copies = np.repeat(X[:1], 4000, axis=0)
        miner = HOSMiner(k=5, sample_size=3).fit(X)
        threshold, priors = miner.threshold_, miner.priors_
        with pytest.raises(ConfigurationError, match=r"threshold_quantile=0\.995.*threshold="):
            miner.extend(copies, refresh=refresh)
        assert miner.threshold_ == threshold
        assert miner.priors_ is priors
        assert miner.backend_.size == 4020
        grown = np.vstack([X, copies])
        oracle = HOSMiner(k=5, sample_size=0, threshold=threshold).fit(grown)
        assert miner.query_row(5).minimal == oracle.query_row(5).minimal
        with pytest.raises(ConfigurationError, match="threshold="):
            HOSMiner(k=5).fit(grown)

    def test_explicit_zero_threshold_stays_legal(self):
        miner = HOSMiner(k=5, threshold=0.0).fit(np.zeros((20, 3)))
        assert miner.threshold_ == 0.0
        assert miner.query_row(0).total_outlying == 7


def test_minimal_listed_in_subspace_order():
    """Results list minimal subspaces by (dimensionality, dims); the filter's
    own tie order by mask value put [2, 3, 4, 5] before [1, 2, 5, 6] here."""
    X = np.random.default_rng(4).normal(size=(300, 6))
    with HOSMiner(k=5, sample_size=5, threshold_quantile=0.9).fit(X) as miner:
        for result in (miner.query_row(189), miner.query_batch([189]).results[0]):
            assert [s.notation() for s in result.minimal[-2:]] == [
                "[1, 2, 5, 6]",
                "[2, 3, 4, 5]",
            ]
            assert result.minimal == sorted(result.minimal)
