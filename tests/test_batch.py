"""Batched multi-query engine: losslessness, sharing, and plumbing.

The batched path must be *indistinguishable* from the sequential one in
its answers — element-wise identical results, including exact OD values
and tie order — while provably doing less work (shared-cache replays,
duplicate coalescing). Both run the same search driver, so the answers
are also checked against independent oracles: a fresh exact-kernel
float64 miner and exhaustive search. These tests pin that contract, plus
the index-layer prefix kernel and the up-front validation.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_search import exhaustive_search
from repro.core import od
from repro.core.batch import BatchQueryEngine
from repro.core.exceptions import ConfigurationError, DataShapeError
from repro.core.filtering import minimal_masks
from repro.core.miner import HOSMiner
from repro.core.od import ODEvaluator, SharedODCache, StoredOutcome, knn_prefixes
from repro.core.precision import reverify_rtol
from repro.core.priors import PruningPriors
from repro.core.result import BatchResult
from repro.core.search import SearchStats, run_searches
from repro.core.subspace import dims_of_mask
from repro.data.synthetic import make_planted_outliers
from repro.index import LinearScanIndex


@pytest.fixture(scope="module")
def dataset():
    return make_planted_outliers(
        n=300, d=6, n_outliers=3, subspace_dims=2, displacement=9.0, seed=23
    )


@pytest.fixture(scope="module")
def miner(dataset) -> HOSMiner:
    return HOSMiner(k=4, sample_size=6, threshold_quantile=0.95).fit(dataset.X)


def assert_results_identical(sequential, batched):
    """Element-wise identity, down to exact OD floats."""
    assert len(sequential) == len(batched)
    for a, b in zip(sequential, batched):
        assert a.minimal == b.minimal
        assert a.total_outlying == b.total_outlying
        assert a.threshold == b.threshold
        assert a.od_values == b.od_values  # exact float equality
        assert a.stats.od_evaluations == b.stats.od_evaluations
        assert a.stats.level_schedule == b.stats.level_schedule


def assert_matches_oracles(miner, targets, results):
    """Independent references for *miner*'s answers to *targets*.

    A fresh ``kernel="exact", precision="float64"`` miner with the same
    ``T`` must report the same minimal subspaces and outlying count, with
    OD values equal (exact tier) or within the served tier's
    re-verification band; exhaustive search must agree on the most
    outlying target.
    """
    X = np.asarray(miner.backend_.data)
    k, threshold = miner.config.k, miner.threshold_
    rtol = reverify_rtol(miner.precision_, miner.d_) if miner.kernel_ == "gemm" else 0.0
    exact = HOSMiner(
        k=k, threshold=threshold, kernel="exact", precision="float64", sample_size=0
    ).fit(X)
    targets = list(targets)
    assert len(targets) == len(results)
    for target, result in zip(targets, results):
        want = exact.query(target)
        assert result.minimal == want.minimal
        assert result.total_outlying == want.total_outlying
        for subspace, value in want.od_values.items():
            got = result.od_values[subspace]
            assert abs(got - value) <= rtol * (abs(got) + abs(value) + 1.0)
    if not targets:
        return
    target, result = max(zip(targets, results), key=lambda pair: pair[1].total_outlying)
    if isinstance(target, (int, np.integer)):
        query, exclude = X[int(target)], int(target)
    else:
        query, exclude = np.asarray(target, dtype=np.float64), None
    oracle = exhaustive_search(
        ODEvaluator(LinearScanIndex(X), query, k, exclude=exclude), threshold
    )
    assert sorted(minimal_masks(oracle.outlying_masks)) == sorted(
        subspace.mask for subspace in result.minimal
    )
    assert len(oracle.outlying_masks) == result.total_outlying


# ----------------------------------------------------------------------
# Index layer: the exact prefix kernel
# ----------------------------------------------------------------------
class TestKnnDistancePrefix:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev", "minkowski:3"])
    @pytest.mark.parametrize("use_components", [False, True])
    def test_matches_knn_sum(self, metric, use_components, rng):
        X = rng.normal(size=(100, 5))
        backend = LinearScanIndex(X, metric=metric)
        query = rng.normal(size=5)
        components = backend.distance_components(query) if use_components else None
        masks = np.array([0b00011, 0b10010, 0b01100])
        sums = backend.knn_distance_prefix(
            query, 4, masks, exclude=17, components=components
        ).sum(axis=1)
        for mask, value in zip(masks.tolist(), sums):
            _, distances = backend.knn(query, 4, dims_of_mask(mask), exclude=17)
            assert value == float(distances.sum())  # bit-identical

    def test_distance_components_none_for_custom_metric(self, rng):
        class WeirdMetric:
            name = "weird"

            def pairwise(self, X, q, dims):
                dims = np.asarray(dims, dtype=np.intp)
                return np.abs(X[:, dims] - q[dims]).sum(axis=1) * 2.0

            def point(self, a, b, dims):
                dims = np.asarray(dims, dtype=np.intp)
                return float(np.abs(a[dims] - b[dims]).sum() * 2.0)

            def mindist(self, q, lower, upper, dims):
                return 0.0

        backend = LinearScanIndex(rng.normal(size=(30, 3)), metric=WeirdMetric())
        assert backend.distance_components(np.zeros(3)) is None
        # The prefix kernel still answers correctly via pairwise fallback.
        sums = backend.knn_distance_prefix(np.zeros(3), 2, np.array([0b011])).sum(axis=1)
        _, distances = backend.knn(np.zeros(3), 2, (0, 1))
        assert sums[0] == float(distances.sum())

    def test_batch_validates_shapes_and_excludes(self, rng):
        backend = LinearScanIndex(rng.normal(size=(30, 3)))
        masks = np.array([0b011])
        with pytest.raises(DataShapeError, match=r"\(m, 3\)"):
            backend.knn_distance_prefix_batch(rng.normal(size=(4, 2)), 2, masks)
        with pytest.raises(ConfigurationError, match="exclusions"):
            backend.knn_distance_prefix_batch(
                rng.normal(size=(4, 3)), 2, masks, excludes=[None]
            )
        with pytest.raises(ConfigurationError, match="out of range"):
            backend.knn_distance_prefix_batch(
                rng.normal(size=(1, 3)), 2, masks, excludes=[99]
            )


    @pytest.mark.parametrize(
        "masks",
        [[0], [-1], [1 << 4], [1.5], [[1, 2]]],
        ids=["zero", "negative", "too-wide", "float", "2-d"],
    )
    @pytest.mark.parametrize("executor", ["linear", "vafile", "shard"])
    def test_malformed_masks_rejected(self, executor, masks):
        """A mask request is a 1-D integer array in ``[1, 2**d)``; anything
        else fails typed in both prefix kernels and in a shard."""
        from repro.core.shard import ShardPool
        from repro.index.vafile import VAFile

        X = np.random.default_rng(3).normal(size=(40, 4))
        masks = np.array(masks)
        with pytest.raises(ConfigurationError, match="masks must"):
            if executor == "shard":
                with ShardPool(X, 2) as pool:
                    pool.scatter_prefixes(X[:2], masks, 3, [None, None], "exact", "float64")
            else:
                backend = LinearScanIndex(X) if executor == "linear" else VAFile(X)
                backend.knn_distance_prefix_batch(X[:2], 3, masks)


# ----------------------------------------------------------------------
# Search layer: the stepped coroutine replays run() exactly
# ----------------------------------------------------------------------
class TestRunStepped:
    @pytest.mark.parametrize("reselect", ["level", "evaluation"])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_equivalent_to_run(self, miner, dataset, reselect, adaptive):
        from repro.core.search import DynamicSubspaceSearch

        for row in [0, 1, 50]:
            reference = DynamicSubspaceSearch(
                ODEvaluator(miner.backend_, dataset.X[row], 4, exclude=row),
                miner.threshold_,
                miner.priors_,
                reselect,
                adaptive=adaptive,
            ).run()

            evaluator = ODEvaluator(miner.backend_, dataset.X[row], 4, exclude=row)
            search = DynamicSubspaceSearch(
                evaluator, miner.threshold_, miner.priors_, reselect, adaptive=adaptive
            )
            generator = search.run_stepped()
            pending = next(generator)
            while True:
                values = {mask: evaluator.od(mask) for mask in pending}
                try:
                    pending = generator.send(values)
                except StopIteration as stop:
                    outcome = stop.value
                    break

            assert sorted(outcome.outlying_masks) == sorted(reference.outlying_masks)
            assert outcome.stats.od_evaluations == reference.stats.od_evaluations
            assert outcome.stats.level_schedule == reference.stats.level_schedule
            assert outcome.stats.upward_pruned == reference.stats.upward_pruned
            assert outcome.stats.downward_pruned == reference.stats.downward_pruned


class TestRunSearches:
    def test_rejects_searches_of_different_models(self, miner, dataset):
        from functools import partial

        from repro.core.od import knn_prefixes
        from repro.core.search import DynamicSubspaceSearch, run_searches

        def search(threshold):
            evaluator = ODEvaluator(miner.backend_, dataset.X[0], 4, exclude=0)
            return DynamicSubspaceSearch(evaluator, threshold, miner.priors_)

        execute = partial(knn_prefixes, miner.backend_)
        assert run_searches([], execute) == []
        with pytest.raises(ConfigurationError, match="share one backend"):
            run_searches([search(1.0), search(2.0)], execute)


# ----------------------------------------------------------------------
# Miner layer: query_batch losslessness (the headline contract)
# ----------------------------------------------------------------------
class TestQueryBatch:
    def test_rows_identical_to_sequential(self, miner):
        rows = list(range(64))
        sequential = [miner.query_row(row) for row in rows]
        batched = miner.query_batch(rows)
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(miner, rows, batched.results)

    def test_external_points_identical_to_sequential(self, miner, dataset, rng):
        points = dataset.X[rng.choice(dataset.X.shape[0], size=20)] + rng.normal(
            scale=0.1, size=(20, dataset.X.shape[1])
        )
        sequential = [miner.query_point(point) for point in points]
        batched = miner.query_batch(points)
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(miner, points, batched.results)

    def test_mixed_targets_with_duplicates(self, miner, dataset):
        external = dataset.X[5] + 0.25
        targets = [0, 1, external, 0, external, 2, 1]
        sequential = [miner.query(t) for t in targets]
        batched = miner.query_batch(targets)
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(miner, targets, batched.results)

    def test_strictly_fewer_knn_evaluations(self, dataset):
        """Acceptance: ≥64 targets, identical answers, strictly fewer
        real kNN evaluations than the sequential loop, cache hits > 0."""
        fresh = HOSMiner(k=4, sample_size=6, threshold_quantile=0.95).fit(dataset.X)
        # Traffic with repetition: every row once, the first eight twice.
        targets = list(range(56)) + list(range(8)) * 2
        assert len(targets) >= 64

        before = fresh.backend_.stats.knn_queries
        sequential = [fresh.query_row(row) for row in targets]
        sequential_knn = fresh.backend_.stats.knn_queries - before

        before = fresh.backend_.stats.knn_queries
        batched = fresh.query_batch(targets)
        batched_knn = fresh.backend_.stats.knn_queries - before

        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(fresh, targets, batched.results)
        assert batched.shared_cache_hits > 0
        assert batched_knn < sequential_knn
        assert batched.knn_evaluations == batched_knn

    def test_second_batch_rides_the_cache(self, dataset):
        fresh = HOSMiner(k=4, sample_size=6, threshold_quantile=0.95).fit(dataset.X)
        targets = list(range(16))
        first = fresh.query_batch(targets)
        before = fresh.backend_.stats.knn_queries
        second = fresh.query_batch(targets)
        assert fresh.backend_.stats.knn_queries == before  # pure replay
        assert_results_identical(first.results, second.results)
        assert_matches_oracles(fresh, targets, second.results)

    def test_workers_mode_identical(self, miner, dataset, rng):
        points = dataset.X[rng.choice(dataset.X.shape[0], size=12)] + rng.normal(
            scale=0.1, size=(12, dataset.X.shape[1])
        )
        sequential = [miner.query_point(point) for point in points]
        batched = miner.query_batch(points, workers=2)
        assert batched.workers == 2
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(miner, points, batched.results)

    def test_empty_and_single_batches(self, miner, dataset):
        empty = miner.query_batch([])
        assert len(empty) == 0 and empty.results == []
        assert empty.n_outliers == 0
        single = miner.query_batch([3])
        assert_results_identical([miner.query_row(3)], single.results)
        assert_matches_oracles(miner, [3], single.results)
        vector = miner.query_batch(np.asarray(dataset.X[3]))
        assert len(vector) == 1
        assert_matches_oracles(miner, [dataset.X[3]], vector.results)

    def test_row_array_targets(self, miner):
        batched = miner.query_batch(np.array([0, 4, 9]))
        sequential = [miner.query_row(row) for row in (0, 4, 9)]
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(miner, np.array([0, 4, 9]), batched.results)

    @pytest.mark.parametrize("index", ["vafile", "rstar"])
    def test_other_backends(self, dataset, index):
        fresh = HOSMiner(
            k=4, sample_size=4, threshold_quantile=0.95, index=index
        ).fit(dataset.X)
        rows = list(range(10))
        sequential = [fresh.query_row(row) for row in rows]
        batched = fresh.query_batch(rows)
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(fresh, rows, batched.results)

    @pytest.mark.parametrize("reselect,adaptive", [("evaluation", False), ("level", True)])
    def test_search_variants(self, dataset, reselect, adaptive):
        fresh = HOSMiner(
            k=4,
            sample_size=4,
            threshold_quantile=0.95,
            reselect=reselect,
            adaptive=adaptive,
        ).fit(dataset.X)
        rows = list(range(12))
        sequential = [fresh.query_row(row) for row in rows]
        batched = fresh.query_batch(rows)
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(fresh, rows, batched.results)

    def test_validation_up_front(self, miner):
        with pytest.raises(DataShapeError, match=r"\(m, 6\)"):
            miner.query_batch(np.zeros((3, 4)))
        with pytest.raises(DataShapeError, match="shape"):
            miner.query_batch([np.zeros(4)])
        with pytest.raises(ConfigurationError, match="out of range"):
            miner.query_batch([10_000])
        with pytest.raises(ConfigurationError, match="workers"):
            miner.query_batch([0], workers=0)

    def test_batch_result_reporting(self, miner):
        batched = miner.query_batch(list(range(8)))
        assert isinstance(batched, BatchResult)
        assert len(list(batched)) == 8
        assert batched[0].threshold == miner.threshold_
        assert batched.wall_time_s > 0
        assert batched.queries_per_second > 0
        text = batched.summary()
        assert "8 queries" in text and "shared-cache hits" in text
        assert batched.stats.od_evaluations == sum(
            result.stats.od_evaluations for result in batched.results
        )
        assert_matches_oracles(miner, range(8), batched.results)


# ----------------------------------------------------------------------
# Batch composition: how targets are batched never changes an answer
# ----------------------------------------------------------------------
def _answer(result) -> tuple:
    """Everything a search reports except ``reverified`` (a duplicate
    replays its leader's values and re-verifies nothing)."""
    stats = result.stats
    return (
        result.minimal,
        result.total_outlying,
        result.od_values,
        stats.od_evaluations,
        stats.upward_pruned,
        stats.downward_pruned,
        stats.level_schedule,
        stats.evaluations_by_level,
    )


@st.composite
def _composition(draw):
    """Planted data, mixed row/point targets with duplicates, a shuffle
    and a split into sub-batches."""
    d = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    X = make_planted_outliers(
        n=60, d=d, n_outliers=2, subspace_dims=2, displacement=9.0, seed=seed
    ).X
    points = X[:4] + np.random.default_rng(seed).normal(scale=0.3, size=(4, d))
    pool = [0, 1, 7, 30] + list(points)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=9))
    order = draw(st.permutations(range(len(picks))))
    cuts = sorted(draw(st.sets(st.integers(1, len(picks) - 1), max_size=3)))
    return X, [pool[i] for i in picks], order, cuts


class TestBatchComposition:
    @settings(max_examples=15, deadline=None)
    @given(_composition())
    def test_answers_independent_of_batching(self, case):
        X, targets, order, cuts = case

        def fresh():
            return HOSMiner(k=3, sample_size=4, threshold_quantile=0.9).fit(X)

        want = [_answer(result) for result in fresh().query_batch(targets).results]
        shuffled = fresh().query_batch([targets[i] for i in order]).results
        assert [_answer(shuffled[order.index(i)]) for i in range(len(targets))] == want
        miner = fresh()
        split = []
        for lo, hi in zip([0, *cuts], [*cuts, len(targets)]):
            split += miner.query_batch(targets[lo:hi]).results
        assert [_answer(result) for result in split] == want
        miner = fresh()
        assert [_answer(miner.query(target)) for target in targets] == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_float32_overflowing_batch_mate(self, workers):
        """A query whose components overflow float32 runs its own float64
        product; its batch-mate keeps the float32 values it gets alone."""
        X = np.random.default_rng(0).normal(size=(400, 4))
        a, b = [5.0, 5.0, 0.0, 0.0], [1e20] * 4

        def fresh():
            return HOSMiner(
                k=4, sample_size=0, threshold=3.0, kernel="gemm", precision="float32"
            ).fit(X)

        with fresh() as solo, fresh() as batched:
            want = solo.query_point(a)
            got = batched.query_batch([a, b], workers=workers).results[0]
        assert_results_identical([want], [got])


# ----------------------------------------------------------------------
# The settle step: one re-verification point for every executor
# ----------------------------------------------------------------------
class TestSettleStep:
    def test_threshold_on_an_od_value_reverifies_alike_everywhere(self, dataset):
        """T placed exactly on the target's OD in the 5-dim subspace
        {1, 2, 3, 5, 6}: the GEMM value lands inside the band and the
        exact kernel decides (the subspace is outlying at OD == T, and
        minimal) — in the sequential search, the in-process batch and
        the shard pool alike."""
        row, mask = 0, 0b110111
        exact = ODEvaluator(LinearScanIndex(dataset.X), dataset.X[row], 4, exclude=row)
        threshold = exact.od(mask)

        def make():
            return HOSMiner(k=4, sample_size=0, kernel="gemm", threshold=threshold).fit(
                dataset.X
            )

        with make() as a, make() as b, make() as c:
            sequential = a.query_row(row)
            inprocess = b.query_batch([row], workers=1).results[0]
            sharded = c.query_batch([row], workers=2).results[0]
            assert_matches_oracles(a, [row], [sequential])
            assert_matches_oracles(b, [row], [inprocess])
            assert_matches_oracles(c, [row], [sharded])
        assert sequential.stats.reverified >= 1
        assert mask in [s.mask for s in sequential.minimal]
        for result in (inprocess, sharded):
            assert_results_identical([sequential], [result])
            assert result.stats.reverified == sequential.stats.reverified

    def test_full_space_settles_exactly_without_reverification(self, dataset):
        """T placed exactly on the full-space OD: the full space is
        settled on the exact kernel, so its cell needs no re-verification
        and the sequential search, the in-process batch and the shard
        pool all report the exact value."""
        from repro.core.subspace import full_mask

        row, d = 0, dataset.X.shape[1]
        exact = ODEvaluator(LinearScanIndex(dataset.X), dataset.X[row], 4, exclude=row)
        threshold = exact.od(full_mask(d))

        def make():
            return HOSMiner(k=4, sample_size=0, kernel="gemm", threshold=threshold).fit(
                dataset.X
            )

        with make() as a, make() as b, make() as c:
            sequential = a.query_row(row)
            inprocess = b.query_batch([row], workers=1).results[0]
            sharded = c.query_batch([row], workers=2).results[0]
            assert_matches_oracles(a, [row], [sequential])
            assert_matches_oracles(b, [row], [inprocess])
            assert_matches_oracles(c, [row], [sharded])
        assert [s.mask for s in sequential.minimal] == [full_mask(d)]
        assert list(sequential.od_values.values()) == [threshold]
        for result in (sequential, inprocess, sharded):
            assert result.stats.reverified == 0
            assert_results_identical([sequential], [result])


# ----------------------------------------------------------------------
# Shared OD cache semantics
# ----------------------------------------------------------------------
class TestSharedODCache:
    def test_fit_populates_cache(self, miner):
        assert len(miner.od_cache_) > 0  # calibration + learning entries

    def test_extend_invalidates(self, dataset):
        fresh = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        fresh.query_batch(list(range(8)))
        assert len(fresh.od_cache_) > 0
        fresh.extend(dataset.X[:2] + 5.0)
        assert len(fresh.od_cache_) == 0
        # Post-extend batches are still identical to sequential.
        sequential = [fresh.query_row(row) for row in range(6)]
        batched = fresh.query_batch(list(range(6)))
        assert_results_identical(sequential, batched.results)
        assert_matches_oracles(fresh, range(6), batched.results)

    def test_point_key_distinguishes_row_and_external(self):
        cache = SharedODCache()
        query = np.array([1.0, 2.0])
        row, external = cache.point_key(query, 3), cache.point_key(query, None)
        assert row != external
        assert cache.point_key(query.copy(), None) == external
        assert cache.point_key(query + 1.0, 3) == row  # a row is its id
        cache.put(row, 0b01, 4.0, kth=1.0)
        assert cache.get(row, 0b01) == 4.0
        assert cache.get(external, 0b01) is None
        assert cache.get(row, 0b10) is None

    def test_evaluator_shared_hits(self, rng):
        X = rng.normal(size=(50, 4))
        backend = LinearScanIndex(X)
        cache = SharedODCache()
        first = ODEvaluator(backend, X[0], 3, exclude=0, shared_cache=cache)
        value = first.od(0b0011)
        second = ODEvaluator(backend, X[0], 3, exclude=0, shared_cache=cache)
        assert second.od(0b0011) == value
        assert second.shared_hits == 1 and second.evaluations == 0


# ----------------------------------------------------------------------
# Stored outcomes: a repeated query_batch target replays its answer
# ----------------------------------------------------------------------
def _stats_fields(stats: SearchStats) -> dict:
    """Every ``SearchStats`` field except ``wall_time_s``."""
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(SearchStats)
        if field.name != "wall_time_s"
    }


def _mixed_targets(dataset) -> list:
    """Rows (planted outliers among them), points and duplicates."""
    planted = [int(row) for row in dataset.outlier_rows]
    external = dataset.X[planted[0]] + 0.05
    return [*planted, 7, external, planted[0], dataset.X[40] + 0.1, external, 7]


def _outcome(settings, evaluations=1) -> StoredOutcome:
    return StoredOutcome(settings, (), (), 0, evaluations, 0, 2, (2,), ((2, evaluations),))


class TestStoredOutcomes:
    @pytest.fixture
    def fresh(self, dataset):
        with HOSMiner(k=4, sample_size=6, threshold_quantile=0.95).fit(dataset.X) as miner:
            yield miner

    def test_replay_reports_the_fully_cached_search(self, fresh, dataset):
        """A replay matches a search over the same cache in every answer
        field and cost counter but wall time."""
        targets = _mixed_targets(dataset)
        first = fresh.query_batch(targets)
        assert first.replayed == 0
        cache = fresh.od_cache_
        hits = cache.hits
        second = fresh.query_batch(targets)
        replay_hits = cache.hits - hits
        assert second.replayed == len(targets)
        assert cache.outcome_hits == len(targets)

        queries, excludes = BatchQueryEngine(fresh)._normalize_targets(targets)
        evaluators = [
            ODEvaluator(
                fresh.backend_, query, fresh.config.k, exclude=exclude,
                shared_cache=cache, kernel=fresh.kernel_, precision=fresh.precision_,
            )
            for query, exclude in zip(queries, excludes)
        ]
        hits = cache.hits
        outcomes = run_searches(
            [fresh._make_search(evaluator) for evaluator in evaluators],
            partial(knn_prefixes, fresh.backend_),
        )
        reference = [fresh._build_result(o, e) for o, e in zip(outcomes, evaluators)]
        assert cache.hits - hits == replay_hits
        assert second.knn_evaluations == sum(e.evaluations for e in evaluators) == 0
        assert second.shared_cache_hits == sum(e.shared_hits for e in evaluators) > 0
        for got, want in zip(second.results, reference):
            assert got.minimal == want.minimal
            assert got.od_values == want.od_values
            assert got.total_outlying == want.total_outlying
            assert got.threshold == want.threshold
            assert _stats_fields(got.stats) == _stats_fields(want.stats)
        assert any(result.is_outlier for result in second.results)
        assert_matches_oracles(fresh, targets, second.results)

    def test_mutating_a_result_never_reaches_a_replay(self, fresh, dataset):
        targets = _mixed_targets(dataset)
        first = fresh.query_batch(targets)
        want = copy.deepcopy([_answer(result) for result in first.results])
        for batch in (first, fresh.query_batch(targets)):
            for result in batch.results:
                result.minimal.clear()
                result.od_values.clear()
                result.stats.level_schedule.append(99)
                result.stats.evaluations_by_level[99] = 1
            replay = fresh.query_batch(targets)
            assert replay.replayed == len(targets)
            assert [_answer(result) for result in replay.results] == want

    def test_swapped_priors_replay_nothing(self, fresh, dataset):
        """``load_miner`` swaps in equal-valued priors after ``fit``; a
        stored outcome replays only under the priors it was found with."""
        targets = _mixed_targets(dataset)
        fresh.query_batch(targets)
        priors = fresh.priors_
        fresh._priors = PruningPriors(priors.d, priors.p_up.copy(), priors.p_down.copy())
        swapped = fresh.query_batch(targets)
        assert swapped.replayed == 0
        assert_matches_oracles(fresh, targets, swapped.results)
        assert fresh.query_batch(targets).replayed == len(targets)

    def test_sequential_queries_neither_read_nor_store_outcomes(self, fresh, dataset):
        fresh.query_batch([3])
        cache = fresh.od_cache_
        stored, hits = len(cache._outcomes), cache.outcome_hits
        fresh.query_row(3)
        fresh.query_point(dataset.X[3] + 0.2)
        assert (len(cache._outcomes), cache.outcome_hits) == (stored, hits)

    def test_delta_pass_drops_the_outcomes_of_slots_that_lose_an_entry(self):
        from repro.core.metrics import get_metric

        cache = SharedODCache()
        window = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        near, far = cache.point_key(window[0], 0), cache.point_key(window[1], 1)
        cache.put(near, 0b01, 3.0, kth=1.0)  # the new row lands inside: evicted
        cache.put(near, 0b10, 3.0, kth=0.1)  # 5.0 away in dim 1: kept
        cache.put(far, 0b01, 3.0, kth=1.0)  # 9.5 away: kept
        settings = (1.0, object(), "level", False, 8.0)
        cache.keep_outcome(near, _outcome(settings))
        cache.keep_outcome(far, _outcome(settings))
        new = np.array([[0.5, 5.0]])
        assert cache.delta_insert(new, np.vstack([window, new]), get_metric("euclidean")) == (1, 2)
        assert cache.outcome(near, settings) is None
        assert cache.outcome(far, settings) == _outcome(settings)
        assert cache.get(near, 0b10) == 3.0  # the slot itself stays
        cache.invalidate()
        assert cache.outcome(far, settings) is None and cache.footprint() == 0

    def test_trim_evicts_least_recently_used_slots_whole(self, monkeypatch):
        cache = SharedODCache()
        points = np.eye(3)
        keys = [cache.point_key(point, None) for point in points]
        settings = (1.0, object(), "level", False, 8.0)
        for key in keys:
            for mask in range(1, 8):
                cache.put(key, mask, float(mask), kth=1.0)
            cache.keep_outcome(key, _outcome(settings))
        cache.point_key(points[0], None)  # points[1] is now the oldest
        monkeypatch.setattr(od, "CACHE_BUDGET_BYTES", cache.footprint() - 1)
        assert cache.trim() == 7
        assert cache.evicted == 7
        assert cache.footprint() <= od.CACHE_BUDGET_BYTES
        assert [cache.outcome(key, settings) is not None for key in (keys[0], keys[2])] == [True] * 2
        assert points[1].tobytes() not in {point for point, _ in cache.entries()}
        # The freed slot goes to the next new point, without an outcome.
        reused = cache.point_key(np.ones(3), None)
        assert reused == keys[1] and cache.outcome(reused, settings) is None
        assert cache.trim() == 0  # back under budget: nothing to do

    def test_query_batch_returns_within_budget(self, dataset, monkeypatch):
        monkeypatch.setattr(od, "CACHE_BUDGET_BYTES", 40_000)
        miner = HOSMiner(k=4, sample_size=6, threshold_quantile=0.95).fit(dataset.X)
        assert miner.od_cache_.footprint() <= 40_000
        targets = _mixed_targets(dataset)
        for _ in range(3):
            batch = miner.query_batch(targets)
            assert miner.od_cache_.footprint() <= 40_000
            assert_matches_oracles(miner, targets, batch.results)
        assert miner.od_cache_.evicted > 0

    def test_pickled_clone_answers_alike(self, fresh, dataset):
        targets = _mixed_targets(dataset)
        fresh.query_batch(targets)
        clone = pickle.loads(pickle.dumps(fresh))
        original, cloned = fresh.query_batch(targets), clone.query_batch(targets)
        assert cloned.replayed == original.replayed == len(targets)
        assert [_answer(r) for r in cloned.results] == [_answer(r) for r in original.results]
        assert "answers replayed: " + str(len(targets)) in cloned.summary()


# ----------------------------------------------------------------------
# ODEvaluator validation (satellite)
# ----------------------------------------------------------------------
class TestEvaluatorValidation:
    def test_wrong_length_names_both_shapes(self, rng):
        backend = LinearScanIndex(rng.normal(size=(30, 5)))
        with pytest.raises(DataShapeError, match=r"expected a query of shape \(5,\), got shape \(3,\)"):
            ODEvaluator(backend, np.zeros(3), 2)

    def test_matrix_query_rejected(self, rng):
        backend = LinearScanIndex(rng.normal(size=(30, 5)))
        with pytest.raises(DataShapeError, match=r"\(2, 5\)"):
            ODEvaluator(backend, np.zeros((2, 5)), 2)

    def test_unconvertible_query_rejected(self, rng):
        backend = LinearScanIndex(rng.normal(size=(30, 2)))
        with pytest.raises(DataShapeError, match="converted"):
            ODEvaluator(backend, ["not", "numbers"], 2)
