"""Sample-based learning: exact fractions, conventions, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive_search import exhaustive_search
from repro.core.exceptions import ConfigurationError
from repro.core.learning import learn_priors
from repro.core.od import ODEvaluator, SharedODCache
from repro.core.priors import PruningPriors
from repro.core.search import DynamicSubspaceSearch
from repro.index.linear import LinearScanIndex


@pytest.fixture(scope="module")
def problem():
    generator = np.random.default_rng(3)
    X = generator.normal(size=(80, 4))
    X[:5, :2] += 6.0  # a small dense anomaly group so fractions vary
    return X, LinearScanIndex(X)


class TestLearnPriors:
    def test_fractions_match_exhaustive_truth(self, problem):
        """The learning pass's per-sample fractions must equal the
        exhaustive per-level outlying fractions — pruning is lossless, so
        learning on the pruned search loses nothing."""
        X, backend = problem
        threshold = 8.0
        report = learn_priors(backend, X, 3, threshold, sample_size=6, seed=42)
        for row, fractions in zip(report.sample_rows, report.per_sample_fractions):
            evaluator = ODEvaluator(backend, X[row], 3, exclude=row)
            oracle = exhaustive_search(evaluator, threshold)
            for m in range(1, 5):
                assert fractions[m] == pytest.approx(
                    oracle.lattice.level_outlying_fraction(m)
                )

    def test_structural_zeros(self, problem):
        X, backend = problem
        report = learn_priors(backend, X, 3, 5.0, sample_size=5, seed=1)
        assert report.priors.p_down[1] == 0.0
        assert report.priors.p_up[4] == 0.0

    def test_averaging(self, problem):
        X, backend = problem
        report = learn_priors(backend, X, 3, 5.0, sample_size=4, seed=9)
        stacked = np.vstack(report.per_sample_fractions)
        for m in range(2, 4):  # interior levels: plain averages
            assert report.priors.p_up[m] == pytest.approx(stacked[:, m].mean())
            assert report.priors.p_down[m] == pytest.approx(1 - stacked[:, m].mean())

    def test_sample_size_zero_returns_uniform(self, problem):
        X, backend = problem
        report = learn_priors(backend, X, 3, 5.0, sample_size=0)
        assert report.sample_rows == []
        assert report.priors.at(2) == (0.5, 0.5)
        assert report.total_od_evaluations == 0

    def test_deterministic_under_seed(self, problem):
        X, backend = problem
        a = learn_priors(backend, X, 3, 5.0, sample_size=5, seed=7)
        b = learn_priors(backend, X, 3, 5.0, sample_size=5, seed=7)
        assert a.sample_rows == b.sample_rows
        np.testing.assert_array_equal(a.priors.p_up, b.priors.p_up)

    def test_adaptive_does_not_change_learned_fractions(self, problem):
        X, backend = problem
        plain = learn_priors(backend, X, 3, 5.0, sample_size=5, seed=7)
        adaptive = learn_priors(
            backend, X, 3, 5.0, sample_size=5, seed=7, adaptive=True
        )
        np.testing.assert_allclose(plain.priors.p_up, adaptive.priors.p_up)

    def test_rejects_negative_sample_size(self, problem):
        X, backend = problem
        with pytest.raises(ConfigurationError):
            learn_priors(backend, X, 3, 5.0, sample_size=-1)

    def test_rejects_oversized_sample(self, problem):
        X, backend = problem
        with pytest.raises(ConfigurationError):
            learn_priors(backend, X, 3, 5.0, sample_size=10_000)

    def test_rejects_mismatched_matrix(self, problem):
        X, backend = problem
        with pytest.raises(ConfigurationError):
            learn_priors(backend, X[:10], 3, 5.0, sample_size=2)

    def test_report_bookkeeping(self, problem):
        X, backend = problem
        report = learn_priors(backend, X, 3, 5.0, sample_size=5, seed=3)
        assert len(report.per_sample_stats) == 5
        assert report.total_od_evaluations == sum(
            s.od_evaluations for s in report.per_sample_stats
        )
        assert report.wall_time_s > 0


class TestBatchedLearningPass:
    """The learning pass runs its sample searches as one batch; each
    sample must decide exactly what a search driven by hand through
    ``run_stepped`` with per-mask exact ``od`` decides."""

    @pytest.mark.parametrize("reselect", ["level", "evaluation"])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_matches_hand_driven_searches(self, problem, reselect, adaptive):
        X, backend = problem
        threshold = 3.0  # four of the eight samples have outlying subspaces
        report = learn_priors(
            backend, X, 3, threshold, sample_size=8, seed=5, reselect=reselect,
            adaptive=adaptive, shared_cache=SharedODCache(), kernel="auto",
        )
        assert len(report.sample_rows) == 8
        for row, fractions, stats in zip(
            report.sample_rows, report.per_sample_fractions, report.per_sample_stats
        ):
            evaluator = ODEvaluator(backend, X[row], 3, exclude=row)
            search = DynamicSubspaceSearch(
                evaluator, threshold, PruningPriors.uniform(4), reselect, adaptive=adaptive
            )
            steps = search.run_stepped()
            pending = next(steps)
            while True:
                try:
                    pending = steps.send({mask: evaluator.od(mask) for mask in pending})
                except StopIteration as stop:
                    outcome = stop.value
                    break
            want = [outcome.lattice.level_outlying_fraction(m) for m in range(1, 5)]
            assert fractions[1:].tolist() == want
            assert (
                stats.od_evaluations,
                stats.upward_pruned,
                stats.downward_pruned,
                stats.level_schedule,
                stats.evaluations_by_level,
            ) == (
                outcome.stats.od_evaluations,
                outcome.stats.upward_pruned,
                outcome.stats.downward_pruned,
                outcome.stats.level_schedule,
                outcome.stats.evaluations_by_level,
            )
