"""The GEMM level-wide OD kernel: tolerance, decisions, fallbacks.

The kernel knob's contract has two halves. *Values*: the GEMM kernel's
OD sums agree with the exact kernel within rtol 1e-9 (BLAS accumulates
in its own order) — property-tested over random data, masks, k, metrics
and input dtypes. *Decisions*: every ``OD >= T`` pruning decision — and
therefore every answer set — is **identical** between kernels on the
tier-1 workloads, because near-threshold GEMM values are re-verified
with the exact kernel before any decision is made on them.

Satellites covered here too: the capacity-doubling insert buffer, the
honest gather/GEMM-flop accounting, and the loud ``kernel="gemm"``
configuration error for metrics without a linear decomposition.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError
from repro.core.metrics import get_metric, resolve_kernel, supports_gemm_kernel
from repro.core.miner import HOSMiner
from repro.core.od import GEMM_REVERIFY_RTOL, ODEvaluator, near_threshold
from repro.core.subspace import dims_of_mask, mask_of_dims
from repro.data.synthetic import make_planted_outliers
from repro.index.linear import LinearScanIndex
from repro.index.rstar import RStarTree
from repro.index.vafile import VAFile
from repro.index.xtree import XTree

RTOL = 1e-9


def _random_problem(seed: int, n: int, d: int, dtype):
    generator = np.random.default_rng(seed)
    X = generator.normal(size=(n, d)).astype(dtype)
    query = generator.normal(size=d).astype(dtype)
    n_masks = int(generator.integers(1, 20))
    masks = np.array(
        [
            mask_of_dims(
                generator.choice(d, size=int(generator.integers(1, d + 1)), replace=False)
            )
            for _ in range(n_masks)
        ]
    )
    return X, query, masks


# ----------------------------------------------------------------------
# Values: GEMM vs exact within rtol 1e-9, any metric / dtype / masks
# ----------------------------------------------------------------------
class TestKernelValues:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        d=st.integers(2, 10),
        k=st.integers(1, 6),
        metric=st.sampled_from(["euclidean", "manhattan", "minkowski:3"]),
        dtype=st.sampled_from([np.float64, np.float32]),
        use_exclude=st.booleans(),
    )
    def test_linear_gemm_matches_exact(self, seed, d, k, metric, dtype, use_exclude):
        X, query, masks = _random_problem(seed, 60, d, dtype)
        backend = LinearScanIndex(X, metric=metric)
        exclude = 7 if use_exclude else None
        exact = backend.knn_distance_prefix(
            query, k, masks, exclude=exclude, kernel="exact"
        ).sum(axis=1)
        gemm = backend.knn_distance_prefix(
            query, k, masks, exclude=exclude, kernel="gemm"
        ).sum(axis=1)
        np.testing.assert_allclose(gemm, exact, rtol=RTOL)
        # The exact kernel itself is bit-identical to summed kNN.
        for mask, value in zip(masks.tolist(), exact):
            _, distances = backend.knn(query, k, dims_of_mask(mask), exclude=exclude)
            assert value == float(distances.sum())

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        d=st.integers(2, 8),
        k=st.integers(1, 4),
        metric=st.sampled_from(["euclidean", "manhattan"]),
    )
    def test_batch_kernel_matches_single_query(self, seed, d, k, metric):
        X, _, masks = _random_problem(seed, 50, d, np.float64)
        backend = LinearScanIndex(X, metric=metric)
        generator = np.random.default_rng(seed + 1)
        queries = generator.normal(size=(4, d))
        excludes = [None, 3, 49, None]
        grid = backend.knn_distance_prefix_batch(
            queries, k, masks, excludes=excludes, kernel="gemm"
        ).sum(axis=2)
        for i in range(queries.shape[0]):
            single = backend.knn_distance_prefix(
                queries[i], k, masks, exclude=excludes[i], kernel="gemm"
            ).sum(axis=1)
            np.testing.assert_array_equal(grid[i], single)

    def test_components_reuse_same_values(self, rng):
        X = rng.normal(size=(80, 6))
        backend = LinearScanIndex(X)
        query = rng.normal(size=6)
        masks = np.array([0b000011, 0b110100, 0b111111])
        components = backend.distance_components(query)
        with_c = backend.knn_distance_prefix(
            query, 4, masks, components=components, kernel="gemm"
        ).sum(axis=1)
        without_c = backend.knn_distance_prefix(query, 4, masks, kernel="gemm").sum(axis=1)
        np.testing.assert_array_equal(with_c, without_c)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "minkowski:3"])
    def test_vafile_gemm_bit_identical_to_exact(self, metric, rng):
        """The VA prefilter only gates *candidates*; refinement is exact
        arithmetic, so both kernels return bit-identical sums."""
        X = rng.normal(size=(300, 6))
        va = VAFile(X, metric=metric, bits=5)
        lin = LinearScanIndex(X, metric=metric)
        query = rng.normal(size=6)
        masks = np.array([0b000001, 0b001010, 0b110101])
        exact = va.knn_distance_prefix(query, 5, masks, exclude=9, kernel="exact").sum(axis=1)
        gemm = va.knn_distance_prefix(query, 5, masks, exclude=9, kernel="gemm").sum(axis=1)
        np.testing.assert_array_equal(gemm, exact)
        reference = [
            float(lin.knn(query, 5, dims_of_mask(mask), exclude=9)[1].sum())
            for mask in masks.tolist()
        ]
        np.testing.assert_array_equal(exact, reference)

    def test_empty_mask_list(self, rng):
        backend = LinearScanIndex(rng.normal(size=(30, 3)))
        empty = np.array([], dtype=np.int64)
        assert backend.knn_distance_prefix(np.zeros(3), 2, empty, kernel="gemm").size == 0


# ----------------------------------------------------------------------
# Decisions: answer sets identical across kernels on tier-1 workloads
# ----------------------------------------------------------------------
class TestPruningEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("index", ["linear", "vafile"])
    def test_answer_sets_identical(self, metric, index):
        dataset = make_planted_outliers(
            n=300, d=6, n_outliers=3, subspace_dims=2, displacement=9.0, seed=23
        )
        kwargs = dict(
            k=4, sample_size=6, threshold_quantile=0.95, metric=metric, index=index
        )
        gemm_miner = HOSMiner(kernel="gemm", **kwargs).fit(dataset.X)
        exact_miner = HOSMiner(kernel="exact", **kwargs).fit(dataset.X)
        assert gemm_miner.kernel_ == "gemm" and exact_miner.kernel_ == "exact"
        assert gemm_miner.threshold_ == exact_miner.threshold_
        targets = list(range(24)) + [dataset.X[5] + 0.3]
        for target in targets:
            g = gemm_miner.query(target)
            e = exact_miner.query(target)
            assert g.minimal == e.minimal
            assert g.total_outlying == e.total_outlying
            assert g.is_outlier == e.is_outlier

    def test_full_outlying_sets_identical(self):
        dataset = make_planted_outliers(
            n=250, d=7, n_outliers=2, subspace_dims=3, displacement=8.0, seed=5
        )
        gemm_miner = HOSMiner(k=4, sample_size=4, kernel="gemm").fit(dataset.X)
        exact_miner = HOSMiner(k=4, sample_size=4, kernel="exact").fit(dataset.X)
        for row in list(dataset.outlier_rows) + [10, 20, 30]:
            g, _ = gemm_miner.search_outcome(row)
            e, _ = exact_miner.search_outcome(row)
            assert sorted(g.outlying_masks) == sorted(e.outlying_masks)

    def test_exact_threshold_hit_reverified(self, rng):
        """A threshold equal to a GEMM OD value lands inside the
        re-verification band, so the exact kernel decides — decisions
        match the exact search even in the worst adversarial case."""
        X = rng.normal(size=(120, 5))
        backend = LinearScanIndex(X)
        evaluator = ODEvaluator(backend, X[0], 3, exclude=0, kernel="gemm")
        probe = evaluator.od_many([0b00111])[0b00111]
        fresh = ODEvaluator(backend, X[0], 3, exclude=0, kernel="gemm")
        values = fresh.od_many([0b00111], threshold=probe)
        exact = float(backend.knn(X[0], 3, (0, 1, 2), exclude=0)[1].sum())
        assert values[0b00111] == exact  # the band forced the exact kernel

    def test_near_threshold_band(self):
        assert near_threshold(10.0, 10.0)
        assert near_threshold(10.0, 10.0 + 1e-12)
        assert not near_threshold(10.0, 10.0 + 1e-6)
        assert not near_threshold(0.0, 1.0)
        assert near_threshold(0.0, GEMM_REVERIFY_RTOL / 2)


# ----------------------------------------------------------------------
# The kernel knob: resolution, fallbacks, loud failures
# ----------------------------------------------------------------------
class WeirdMetric:
    """A metric with no component decomposition at all."""

    name = "weird"

    def pairwise(self, X, q, dims):
        dims = np.asarray(dims, dtype=np.intp)
        return np.abs(X[:, dims] - q[dims]).sum(axis=1) * 2.0

    def point(self, a, b, dims):
        dims = np.asarray(dims, dtype=np.intp)
        return float(np.abs(a[dims] - b[dims]).sum() * 2.0)

    def mindist(self, q, lower, upper, dims):
        return 0.0


class TestKernelConfiguration:
    def test_resolution(self):
        assert resolve_kernel("auto", get_metric("euclidean")) == "gemm"
        assert resolve_kernel("auto", get_metric("chebyshev")) == "exact"
        assert resolve_kernel("exact", get_metric("euclidean")) == "exact"
        assert supports_gemm_kernel(get_metric("minkowski:4"))
        assert not supports_gemm_kernel(WeirdMetric())
        with pytest.raises(ConfigurationError, match="kernel must be one of"):
            resolve_kernel("fast", get_metric("euclidean"))

    def test_explicit_gemm_rejected_for_max_reduction(self):
        with pytest.raises(ConfigurationError, match="component decomposition"):
            resolve_kernel("gemm", get_metric("chebyshev"))

    def test_fit_fails_loudly_on_gemm_with_custom_metric(self, rng):
        X = rng.normal(size=(40, 4))
        with pytest.raises(ConfigurationError, match="component decomposition"):
            HOSMiner(k=3, sample_size=0, kernel="gemm", metric=WeirdMetric()).fit(X)

    def test_auto_falls_back_for_custom_metric(self, rng):
        X = rng.normal(size=(40, 4))
        miner = HOSMiner(
            k=3, sample_size=2, threshold_quantile=0.9, metric=WeirdMetric()
        ).fit(X)
        assert miner.kernel_ == "exact"
        assert miner.query_row(0) is not None

    def test_config_validates_kernel(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            HOSMiner(kernel="fast")

    def test_index_rejects_gemm_for_incapable_metric(self, rng):
        backend = LinearScanIndex(rng.normal(size=(30, 3)), metric=WeirdMetric())
        with pytest.raises(ConfigurationError, match="component decomposition"):
            backend.knn_distance_prefix(np.zeros(3), 2, np.array([0b011]), kernel="gemm")

    def test_evaluator_tree_backend_falls_back(self, rng):
        from repro.index.rstar import RStarTree

        X = rng.normal(size=(60, 4))
        tree = RStarTree(X)
        evaluator = ODEvaluator(tree, X[0], 3, exclude=0, kernel="gemm")
        values = evaluator.od_many([0b0011, 0b1100], threshold=1.0)
        for mask, dims in ((0b0011, (0, 1)), (0b1100, (2, 3))):
            assert values[mask] == float(tree.knn(X[0], 3, dims, exclude=0)[1].sum())

    def test_fit_fails_loudly_on_gemm_with_tree_backend(self, rng):
        """A user who demanded the fast kernel must not silently get the
        per-subspace tree descent instead."""
        X = rng.normal(size=(60, 4))
        with pytest.raises(ConfigurationError, match="knn_distance_prefix"):
            HOSMiner(k=3, sample_size=0, kernel="gemm", index="rstar").fit(X)

    def test_auto_reports_exact_for_tree_backend(self, rng):
        X = rng.normal(size=(60, 4))
        miner = HOSMiner(
            k=3, sample_size=0, threshold_quantile=0.9, index="rstar"
        ).fit(X)
        assert miner.kernel_ == "exact"  # what actually runs

    def test_budget_bounds_kernel_work(self, rng):
        """SearchBudgetExceeded must cap backend work, not just recorded
        decisions: a level wider than the remaining budget may only
        evaluate up to the budget before raising."""
        from repro.core.exceptions import SearchBudgetExceeded
        from repro.core.priors import PruningPriors
        from repro.core.search import DynamicSubspaceSearch

        X = rng.normal(size=(80, 8))
        X[0] += 5.0
        backend = LinearScanIndex(X)
        evaluator = ODEvaluator(backend, X[0], 3, exclude=0, kernel="gemm")
        search = DynamicSubspaceSearch(
            evaluator, 2.0, PruningPriors.uniform(8), max_evaluations=3
        )
        with pytest.raises(SearchBudgetExceeded):
            search.run()
        assert evaluator.evaluations <= 3


# ----------------------------------------------------------------------
# Satellite: amortised insert buffer
# ----------------------------------------------------------------------
class TestInsertBuffer:
    def test_growth_preserves_data_and_answers(self, rng):
        X = rng.normal(size=(17, 4))
        backend = LinearScanIndex(X)
        extra = rng.normal(size=(203, 4))
        for row in extra:
            backend.insert(row)
        assert backend.size == 220
        reference = LinearScanIndex(np.vstack([X, extra]))
        np.testing.assert_array_equal(backend.data, reference.data)
        query = rng.normal(size=4)
        for dims in [(0, 2), (1, 2, 3)]:
            got = backend.knn(query, 5, dims)
            want = reference.knn(query, 5, dims)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_amortised_capacity_doubling(self, rng):
        start = rng.normal(size=(4, 3))
        rows = rng.normal(size=(1000, 3))
        for cls in (LinearScanIndex, VAFile, RStarTree, XTree):
            backend = cls(start)
            buffers = {}
            for row in rows:
                backend.insert(row)
                buffer = backend._rows._buffer
                buffers[id(buffer)] = buffer  # held, so no id is reused
            # 4 -> 1004 rows needs only ~log2(1004/4) reallocations; a
            # vstack-per-insert implementation would create ~1000 buffers.
            assert len(buffers) <= 12, cls.__name__
            assert backend.size == 1004
            np.testing.assert_array_equal(backend.data, np.vstack([start, rows]))

    def test_gemm_kernel_after_growth(self, rng):
        backend = LinearScanIndex(rng.normal(size=(30, 5)))
        for row in rng.normal(size=(50, 5)):
            backend.insert(row)
        query = rng.normal(size=5)
        masks = np.array([0b00011, 0b11100])
        exact = backend.knn_distance_prefix(query, 4, masks).sum(axis=1)
        gemm = backend.knn_distance_prefix(query, 4, masks, kernel="gemm").sum(axis=1)
        np.testing.assert_allclose(gemm, exact, rtol=RTOL)


# ----------------------------------------------------------------------
# Satellite: honest cost accounting
# ----------------------------------------------------------------------
class TestAccounting:
    def test_component_reuse_not_charged_as_scans(self, rng):
        X = rng.normal(size=(100, 5))
        backend = LinearScanIndex(X)
        query = rng.normal(size=5)
        components = backend.distance_components(query)
        # Building the matrix is one full per-dimension pass.
        assert backend.stats.distance_computations == 100
        before = backend.stats.distance_computations
        backend.knn_distance_prefix(
            query, 3, np.array([0b00011, 0b10100]), components=components, kernel="exact"
        )
        assert backend.stats.distance_computations == before  # no new scans
        assert backend.stats.extra["component_gathers"] == 100 * 4  # 2+2 dims
        assert backend.stats.knn_queries == 2

    def test_fresh_exact_scans_still_charged(self, rng):
        X = rng.normal(size=(100, 5))
        backend = LinearScanIndex(X)
        backend.knn_distance_prefix(rng.normal(size=5), 3, np.array([0b00011, 0b10100]))
        assert backend.stats.distance_computations == 200
        assert "component_gathers" not in backend.stats.extra

    def test_gemm_flops_counted(self, rng):
        X = rng.normal(size=(100, 5))
        backend = LinearScanIndex(X)
        query = rng.normal(size=5)
        components = backend.distance_components(query)
        before = backend.stats.distance_computations
        backend.knn_distance_prefix(
            query, 3, np.array([0b00011, 0b10100, 0b01001]), components=components, kernel="gemm"
        )
        assert backend.stats.extra["gemm_flops"] == 2 * 100 * 5 * 3
        assert backend.stats.distance_computations == before


# ----------------------------------------------------------------------
# Satellite: the CLI --kernel flag
# ----------------------------------------------------------------------
class TestCliKernelFlag:
    @pytest.fixture()
    def csv_path(self, tmp_path, rng):
        X = rng.normal(size=(60, 4))
        X[3] += 6.0
        path = tmp_path / "data.csv"
        header = "a,b,c,d"
        np.savetxt(path, X, delimiter=",", header=header, comments="")
        return path

    @pytest.mark.parametrize("kernel", ["auto", "gemm", "exact"])
    def test_query_accepts_kernel(self, csv_path, kernel, capsys):
        from repro.cli import main

        assert main(["query", str(csv_path), "--row", "3", "--kernel", kernel]) == 0
        assert "row 3" in capsys.readouterr().out

    def test_batch_reports_kernel(self, csv_path, capsys):
        from repro.cli import main

        assert main(["batch", str(csv_path), "--rows", "0,3"]) == 0
        assert "kernel = gemm" in capsys.readouterr().out

    def test_batch_kernel_exact(self, csv_path, capsys):
        from repro.cli import main

        code = main(["batch", str(csv_path), "--rows", "0,3", "--kernel", "exact"])
        assert code == 0
        assert "kernel = exact" in capsys.readouterr().out
