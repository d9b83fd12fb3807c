"""THE correctness property: every pruning strategy equals exhaustive search.

Both pruning rules are exact consequences of OD monotonicity, so the
answer set of any search variant — TSF-ordered with any priors, adaptive
or not, per-level or per-evaluation re-selection, fixed sweeps — must be
*identical* to brute-force enumeration. Hypothesis drives random
datasets, thresholds, k and priors through all variants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_search import exhaustive_search, fixed_order_search
from repro.core.filtering import minimal_masks
from repro.core.miner import HOSMiner
from repro.core.od import ODEvaluator
from repro.core.priors import PruningPriors
from repro.core.search import DynamicSubspaceSearch
from repro.index.linear import LinearScanIndex


def _make_problem(seed: int, d: int, k: int, quantile: float):
    generator = np.random.default_rng(seed)
    X = generator.normal(size=(50, d))
    X[0, : max(1, d // 2)] += generator.uniform(0, 8)  # sometimes outlying
    backend = LinearScanIndex(X)
    evaluator = ODEvaluator(backend, X[0], k, exclude=0)
    full_mask = (1 << d) - 1
    # Pick T relative to this very point's OD range so all regimes
    # (no outlying subspaces / some / all) get generated.
    top = evaluator.od(full_mask)
    threshold = quantile * top if top > 0 else 0.0
    return evaluator, threshold


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    d=st.integers(2, 6),
    k=st.integers(1, 5),
    quantile=st.floats(0.0, 1.2),
)
def test_dynamic_search_equals_exhaustive(seed, d, k, quantile):
    evaluator, threshold = _make_problem(seed, d, k, quantile)
    oracle = frozenset(exhaustive_search(evaluator, threshold).outlying_masks)
    for priors in (PruningPriors.uniform(d),):
        for adaptive in (False, True):
            for reselect in ("level", "evaluation"):
                outcome = DynamicSubspaceSearch(
                    evaluator, threshold, priors, reselect, adaptive=adaptive
                ).run()
                assert frozenset(outcome.outlying_masks) == oracle


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    d=st.integers(2, 6),
    k=st.integers(1, 4),
    quantile=st.floats(0.0, 1.2),
    order=st.sampled_from(["bottom_up", "top_down"]),
)
def test_fixed_order_search_equals_exhaustive(seed, d, k, quantile, order):
    evaluator, threshold = _make_problem(seed, d, k, quantile)
    oracle = frozenset(exhaustive_search(evaluator, threshold).outlying_masks)
    outcome = fixed_order_search(evaluator, threshold, order)
    assert frozenset(outcome.outlying_masks) == oracle


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    d=st.integers(2, 5),
    up=st.lists(st.floats(0, 1), min_size=5, max_size=5),
    down=st.lists(st.floats(0, 1), min_size=5, max_size=5),
)
def test_arbitrary_priors_cannot_change_the_answer(seed, d, up, down):
    """Priors steer the order only — ANY probability assignment must
    produce the oracle answer."""
    evaluator, threshold = _make_problem(seed, d, 3, 0.8)
    p_up = np.zeros(d + 1)
    p_down = np.zeros(d + 1)
    for m in range(1, d + 1):
        p_up[m] = up[m - 1]
        p_down[m] = down[m - 1]
    priors = PruningPriors(d, p_up, p_down)
    oracle = frozenset(exhaustive_search(evaluator, threshold).outlying_masks)
    outcome = DynamicSubspaceSearch(evaluator, threshold, priors).run()
    assert frozenset(outcome.outlying_masks) == oracle


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), d=st.integers(2, 6))
def test_answer_set_is_upward_closed(seed, d):
    """Property 2 end-to-end: the returned answer set is upward closed."""
    from repro.core.subspace import iter_proper_supermasks

    evaluator, threshold = _make_problem(seed, d, 3, 0.7)
    outcome = DynamicSubspaceSearch(
        evaluator, threshold, PruningPriors.uniform(d)
    ).run()
    answer = set(outcome.outlying_masks)
    for mask in answer:
        for sup in iter_proper_supermasks(mask, d):
            assert sup in answer


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), d=st.integers(2, 6))
def test_stats_account_for_every_subspace(seed, d):
    """Every subspace is either evaluated or pruned, exactly once."""
    warm, threshold = _make_problem(seed, d, 3, 0.9)
    # A fresh evaluator: the one _make_problem returns has already
    # evaluated the full space.
    evaluator = ODEvaluator(warm.backend, warm.query, 3, exclude=0)
    outcome = DynamicSubspaceSearch(
        evaluator, threshold, PruningPriors.uniform(d)
    ).run()
    stats = outcome.stats
    total = (1 << d) - 1
    assert (
        stats.od_evaluations + stats.upward_pruned + stats.downward_pruned == total
    )
    assert stats.od_evaluations == evaluator.evaluations
    assert sum(stats.evaluations_by_level.values()) == stats.od_evaluations


def test_threshold_zero_makes_everything_outlying(rng):
    X = rng.normal(size=(30, 4))
    evaluator = ODEvaluator(LinearScanIndex(X), X[0], 3, exclude=0)
    outcome = DynamicSubspaceSearch(evaluator, 0.0, PruningPriors.uniform(4)).run()
    assert len(outcome.outlying_masks) == 15
    assert outcome.is_outlier_anywhere()


def test_huge_threshold_makes_nothing_outlying(rng):
    X = rng.normal(size=(30, 4))
    evaluator = ODEvaluator(LinearScanIndex(X), X[0], 3, exclude=0)
    outcome = DynamicSubspaceSearch(evaluator, 1e9, PruningPriors.uniform(4)).run()
    assert outcome.outlying_masks == []
    assert not outcome.is_outlier_anywhere()
    # A single full-space evaluation should have decided everything.
    assert outcome.stats.od_evaluations == 1


class TestSearchValidation:
    def test_negative_threshold_rejected(self, rng):
        import pytest

        from repro.core.exceptions import ConfigurationError

        X = rng.normal(size=(20, 3))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 2, exclude=0)
        with pytest.raises(ConfigurationError):
            DynamicSubspaceSearch(evaluator, -1.0, PruningPriors.uniform(3))

    def test_mismatched_priors_rejected(self, rng):
        from repro.core.exceptions import ConfigurationError

        X = rng.normal(size=(20, 3))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 2, exclude=0)
        with pytest.raises(ConfigurationError):
            DynamicSubspaceSearch(evaluator, 1.0, PruningPriors.uniform(4))

    def test_bad_reselect_rejected(self, rng):
        from repro.core.exceptions import ConfigurationError

        X = rng.normal(size=(20, 3))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 2, exclude=0)
        with pytest.raises(ConfigurationError):
            DynamicSubspaceSearch(
                evaluator, 1.0, PruningPriors.uniform(3), reselect="both"
            )

    def test_bad_adaptive_weight_rejected(self, rng):
        from repro.core.exceptions import ConfigurationError

        X = rng.normal(size=(20, 3))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 2, exclude=0)
        with pytest.raises(ConfigurationError):
            DynamicSubspaceSearch(
                evaluator, 1.0, PruningPriors.uniform(3), adaptive_prior_weight=0
            )

    def test_exhaustive_rejects_negative_threshold(self, rng):
        from repro.core.exceptions import ConfigurationError

        X = rng.normal(size=(20, 3))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 2, exclude=0)
        with pytest.raises(ConfigurationError):
            exhaustive_search(evaluator, -0.5)

    def test_fixed_order_rejects_unknown_order(self, rng):
        from repro.core.exceptions import ConfigurationError

        X = rng.normal(size=(20, 3))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 2, exclude=0)
        with pytest.raises(ConfigurationError):
            fixed_order_search(evaluator, 1.0, order="sideways")


class TestDegenerateLattices:
    """The level-wide control plane on the smallest lattices. At d=1 the
    only level has nothing above or below it; at n=k+1 every point's
    neighbours are all the other points."""

    @pytest.mark.parametrize(
        "n, d, k, sample_size",
        [(60, 1, 3, 4), (60, 2, 3, 4), (4, 3, 3, 4)],
        ids=["d=1", "d=2", "n=k+1"],
    )
    def test_answers_match_exhaustive_search(self, n, d, k, sample_size):
        X = np.random.default_rng(d).normal(size=(n, d))
        X[0] += 6.0
        with HOSMiner(k=k, sample_size=sample_size, threshold_quantile=0.9).fit(X) as miner:
            want = {}
            for row in range(n):
                evaluator = ODEvaluator(miner.backend_, X[row], k, exclude=row)
                oracle = exhaustive_search(evaluator, miner.threshold_).outlying_masks
                want[row] = (sorted(minimal_masks(oracle)), len(oracle))
            assert any(total for _, total in want.values())

            def answer(result):
                return sorted(s.mask for s in result.minimal), result.total_outlying

            batch = miner.query_batch(list(range(n)), workers=1).results
            for row in range(n):
                assert answer(miner.query_row(row)) == want[row]
                assert answer(batch[row]) == want[row]
            flagged = dict(miner.detect_outliers())
            assert set(flagged) == {row for row, (_, total) in want.items() if total}
            for row, result in flagged.items():
                assert answer(result) == want[row]
