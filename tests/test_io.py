"""Persistence: miner save/load round-trips and result serialisation."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import HOSMinerConfig
from repro.core.exceptions import ConfigurationError, HOSMinerError
from repro.core.io import load_miner, result_from_dict, result_to_dict, save_miner
from repro.core.metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    MinkowskiMetric,
)
from repro.core.miner import HOSMiner
from repro.data.synthetic import make_planted_outliers

#: Every built-in metric: the name an archive writes, and an instance.
BUILT_IN_METRICS = [
    ("euclidean", EuclideanMetric()),
    ("manhattan", ManhattanMetric()),
    ("chebyshev", ChebyshevMetric()),
    ("minkowski:3.0", MinkowskiMetric(3)),
]


@pytest.fixture(scope="module")
def saved_miner(tmp_path_factory):
    dataset = make_planted_outliers(
        n=200, d=5, n_outliers=2, subspace_dims=2, displacement=9.0, seed=23
    )
    miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.98).fit(
        dataset.X, feature_names=[f"f{i}" for i in range(5)]
    )
    path = str(tmp_path_factory.mktemp("io") / "miner.npz")
    save_miner(miner, path)
    return miner, path, dataset


class TestMinerRoundTrip:
    def test_threshold_and_priors_preserved(self, saved_miner):
        miner, path, _ = saved_miner
        loaded = load_miner(path)
        assert loaded.threshold_ == pytest.approx(miner.threshold_)
        np.testing.assert_allclose(loaded.priors_.p_up, miner.priors_.p_up)
        np.testing.assert_allclose(loaded.priors_.p_down, miner.priors_.p_down)

    def test_queries_identical_after_reload(self, saved_miner):
        miner, path, dataset = saved_miner
        loaded = load_miner(path)
        for row in [0, 1, 50]:
            original = miner.query_row(row)
            restored = loaded.query_row(row)
            assert {s.mask for s in original.minimal} == {
                s.mask for s in restored.minimal
            }
            assert original.total_outlying == restored.total_outlying

    def test_feature_names_preserved(self, saved_miner):
        _, path, __ = saved_miner
        loaded = load_miner(path)
        assert "f3" in loaded.query_row(0).describe_subspace(
            loaded.query_row(0).minimal[0]
        ) or loaded._feature_names == [f"f{i}" for i in range(5)]

    def test_config_round_trip(self, saved_miner):
        miner, path, _ = saved_miner
        loaded = load_miner(path)
        assert loaded.config.k == miner.config.k
        assert loaded.config.sample_size == miner.config.sample_size

    def test_unfitted_miner_rejected(self, tmp_path):
        with pytest.raises(HOSMinerError):
            save_miner(HOSMiner(k=3), str(tmp_path / "x.npz"))

    def test_version_checked(self, saved_miner, tmp_path):
        _, path, __ = saved_miner
        with np.load(path) as archive:
            header = json.loads(bytes(archive["header"]).decode())
            header["format_version"] = 99
            corrupted = str(tmp_path / "bad.npz")
            np.savez_compressed(
                corrupted,
                header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                X=archive["X"],
                p_up=archive["p_up"],
                p_down=archive["p_down"],
            )
        with pytest.raises(HOSMinerError):
            load_miner(corrupted)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("given", ["name", "instance"])
    @pytest.mark.parametrize(
        "name, instance", BUILT_IN_METRICS, ids=[name for name, _ in BUILT_IN_METRICS]
    )
    def test_metric_and_config_survive_a_round_trip(self, tmp_path, name, instance, given):
        """A metric given as a name or as a built-in instance reloads as
        that metric, every other config field reloads unchanged (an
        instance comes back as its name), and answers are equal."""
        X = np.random.default_rng(41).normal(size=(300, 4))
        config = HOSMinerConfig(
            k=4,
            sample_size=3,
            threshold_quantile=0.97,
            metric=name if given == "name" else instance,
            kernel="exact",
            precision="float64",
            workers=1,
            stream_window=250,
        )
        miner = HOSMiner(config).fit(X)
        path = str(tmp_path / "miner.npz")
        save_miner(miner, path)
        loaded = load_miner(path)
        assert loaded.config == replace(config, metric=name)
        assert loaded.threshold_ == miner.threshold_
        targets = list(range(0, 300, 10)) + [X[0] + 2.5, X[1] - 4.0]
        for a, b in zip(miner.query_batch(targets), loaded.query_batch(targets)):
            assert a.minimal == b.minimal
            assert a.total_outlying == b.total_outlying
            assert a.od_values == b.od_values

    def test_numpy_scalar_fields_round_trip(self, tmp_path):
        """Config validation accepts numpy integers; the archive writes
        them as plain numbers."""
        config = HOSMinerConfig(
            k=np.int64(3),
            sample_size=0,
            seed=np.int64(2),
            index="vafile",
            index_options={"bits": np.int64(5)},
        )
        miner = HOSMiner(config).fit(np.random.default_rng(43).normal(size=(40, 3)))
        path = str(tmp_path / "miner.npz")
        save_miner(miner, path)
        assert load_miner(path).config == config

    def test_unnamed_metric_rejected(self, tmp_path):
        class Shifted(EuclideanMetric):
            name = "shifted"

        miner = HOSMiner(k=3, sample_size=0, metric=Shifted()).fit(
            np.random.default_rng(42).normal(size=(40, 3))
        )
        with pytest.raises(ConfigurationError, match="cannot save"):
            save_miner(miner, str(tmp_path / "x.npz"))


class TestResultRoundTrip:
    def test_json_round_trip(self, saved_miner):
        miner, _, __ = saved_miner
        result = miner.query_row(0)
        payload = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(payload)
        assert [s.mask for s in restored.minimal] == [s.mask for s in result.minimal]
        assert restored.threshold == pytest.approx(result.threshold)
        assert restored.total_outlying == result.total_outlying
        assert restored.stats.od_evaluations == result.stats.od_evaluations
        for subspace in result.minimal:
            assert restored.od_values[subspace] == pytest.approx(
                result.od_values[subspace]
            )

    def test_explain_works_after_round_trip(self, saved_miner):
        miner, _, __ = saved_miner
        restored = result_from_dict(result_to_dict(miner.query_row(0)))
        assert "outlier" in restored.explain()

    def test_version_checked(self):
        with pytest.raises(HOSMinerError):
            result_from_dict({"format_version": 0})
