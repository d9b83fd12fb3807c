"""The mixed-precision GEMM tier, the top-k kernels, and their plumbing.

Contract under test (the PR 7 tentpole): with ``precision="float32"``
the level-wide GEMM runs in float32 but every answer set stays
**bit-identical** to the float64 kernel, because values inside the
rigorous rounding band of :func:`repro.core.precision.reverify_rtol`
are re-verified in exact float64 before any threshold decision. The
satellites ride along: the top-k selection (value-identical to a full
sort on both of its paths), the column-blocked
single-query GEMM (bounded intermediate, bit-identical merge), the
float32 overflow fallback, and the schema-v2 bench counters
(percentiles, peak high-water marks, ``reverify_fraction``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.linear as linear_module
from repro.bench.runner import run_spec
from repro.bench.snapshot import SnapshotError, validate_snapshot
from repro.bench.spec import ExperimentSpec
from repro.core.exceptions import ConfigurationError
from repro.core.miner import HOSMiner
from repro.core.od import GEMM_REVERIFY_RTOL, ODEvaluator
from repro.core.precision import (
    FLOAT32_UNIT_ROUNDOFF,
    PRECISIONS,
    resolve_precision,
    reverify_rtol,
)
from repro.core.subspace import mask_of_dims
from repro.data.synthetic import make_planted_outliers
from repro.index.base import components32_from
from repro.index.linear import LinearScanIndex
from repro.index.topk import topk_prefix
from repro.index.vafile import VAFile


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def _random_masks(generator, d, n_masks):
    return np.array(
        [
            mask_of_dims(
                generator.choice(d, size=int(generator.integers(1, d + 1)), replace=False)
            )
            for _ in range(n_masks)
        ]
    )


# ----------------------------------------------------------------------
# Knob resolution and the error bound
# ----------------------------------------------------------------------
class TestResolvePrecision:
    def test_auto_under_gemm_is_float32(self):
        assert resolve_precision("auto", "gemm") == "float32"

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_non_gemm_kernels_are_inert(self, precision):
        # float32 under the exact kernel is not an error: the exact
        # kernel IS the float64 reference (HOSMINER_PRECISION=float32
        # CI runs of exact-kernel configurations must stay valid).
        assert resolve_precision(precision, "exact") == "float64"

    def test_explicit_tiers_under_gemm(self):
        assert resolve_precision("float64", "gemm") == "float64"
        assert resolve_precision("float32", "gemm") == "float32"

    def test_unknown_precision_rejected(self):
        with pytest.raises(ConfigurationError, match="precision"):
            resolve_precision("float16", "gemm")

    def test_config_knob_validated(self):
        with pytest.raises(ConfigurationError, match="precision"):
            HOSMiner(precision="double")


class TestReverifyRtol:
    def test_float64_band_is_legacy(self):
        assert reverify_rtol("float64", 8) == GEMM_REVERIFY_RTOL
        assert reverify_rtol("auto", 8) == GEMM_REVERIFY_RTOL

    def test_band_grows_with_d_and_dominates_float64(self):
        widths = [reverify_rtol("float32", d) for d in (1, 4, 16, 64, 1024)]
        assert widths == sorted(widths)
        assert all(w >= GEMM_REVERIFY_RTOL for w in widths)
        # The band must dominate the raw per-sum bound e = (1+u)(1+γ_d)−1.
        u = FLOAT32_UNIT_ROUNDOFF
        for d, width in zip((1, 4, 16, 64, 1024), widths):
            gamma = d * u / (1 - d * u)
            assert width > (1 + u) * (1 + gamma) - 1

    def test_invalid_d_rejected(self):
        with pytest.raises(ConfigurationError):
            reverify_rtol("float32", 0)
        with pytest.raises(ConfigurationError):
            reverify_rtol("float32", 10**7)  # d*u >= 0.5

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**20), d=st.integers(2, 24), k=st.integers(1, 6))
    def test_bound_covers_observed_error(self, seed, d, k):
        """The rigorous band covers the float32 kernel's actual relative
        error on random data — the property the bit-identity proof
        stands on."""
        generator = np.random.default_rng(seed)
        X = generator.normal(size=(150, d))
        query = generator.normal(size=d)
        backend = LinearScanIndex(X)
        masks = _random_masks(generator, d, 12)
        components = backend.distance_components(query)
        exact = backend.knn_distance_prefix(
            query, k, masks, components=components, kernel="gemm"
        ).sum(axis=1)
        f32 = backend.knn_distance_prefix(
            query,
            k,
            masks,
            components=components,
            kernel="gemm",
            precision="float32",
        ).sum(axis=1)
        rel = np.abs(f32 - exact) / np.maximum(np.abs(exact), 1e-300)
        assert float(rel.max()) < reverify_rtol("float32", d)


# ----------------------------------------------------------------------
# The float32 component cache
# ----------------------------------------------------------------------
class TestComponents32:
    def test_layout_and_values(self, rng):
        components = rng.uniform(size=(50, 6))
        c32 = components32_from(components)
        assert c32.shape == (6, 50)
        assert c32.dtype == np.float32
        assert c32.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(c32, components.T.astype(np.float32))

    def test_overflow_returns_none(self):
        components = np.array([[1.0, 1e300], [2.0, 3.0]])
        assert components32_from(components) is None

    def test_none_passthrough(self):
        assert components32_from(None) is None

    def test_overflow_falls_back_to_float64_silently(self, rng):
        """Cast overflow downgrades the tier, never the answers."""
        X = rng.normal(size=(60, 4))
        X[7] = 1e300  # squared components overflow float32 (and float64->inf)
        backend = LinearScanIndex(X)
        query = rng.normal(size=4)
        masks = _random_masks(rng, 4, 8)
        exact = backend.knn_distance_prefix(query, 3, masks, kernel="gemm").sum(axis=1)
        f32 = backend.knn_distance_prefix(
            query, 3, masks, kernel="gemm", precision="float32"
        ).sum(axis=1)
        np.testing.assert_array_equal(f32, exact)


# ----------------------------------------------------------------------
# Top-k selection
# ----------------------------------------------------------------------
class TestTopkKernels:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        m=st.integers(1, 8),
        n=st.integers(1, 3000),
        k=st.integers(1, 10),
        dtype=st.sampled_from([np.float64, np.float32]),
        ties=st.booleans(),
    )
    def test_all_kernels_value_identical(self, seed, m, n, k, dtype, ties):
        """Both selection paths — the min-filter on wide rows and plain
        introselect on narrow ones — return the full sort's prefix."""
        generator = np.random.default_rng(seed)
        k = min(k, n)
        S = generator.normal(size=(m, n)).astype(dtype)
        if ties and n >= 4:
            S[:, : n // 2] = np.round(S[:, : n // 2])  # mass-produce ties
            S[:, -1] = np.inf  # excluded-self sentinel
        reference = np.sort(S, axis=1)[:, :k]
        before = S.copy()
        np.testing.assert_array_equal(topk_prefix(S, k), reference)
        np.testing.assert_array_equal(S, before)  # read, never written

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [40, 8000])  # the narrow fallback, the two-stage filter
    def test_input_never_mutated(self, rng, dtype, n):
        """The full-space screen selects on its block and then reads it
        again, so neither path may partition the caller's array."""
        S = np.round(rng.normal(size=(6, n)) * 2).astype(dtype)  # ties
        S[:, -1] = np.inf
        before = S.copy()
        reference = np.sort(S, axis=1)[:, :5]
        np.testing.assert_array_equal(topk_prefix(S, 5), reference)
        np.testing.assert_array_equal(S, before)

    def test_strided_input(self, rng):
        """The filter's as_strided view must respect the source strides —
        a column-sliced (non-contiguous) block is legal input."""
        wide = rng.normal(size=(4, 8192)).astype(np.float32)
        S = wide[:, ::2]
        reference = np.sort(S, axis=1)[:, :5]
        np.testing.assert_array_equal(topk_prefix(S, 5), reference)


# ----------------------------------------------------------------------
# Column blocking: bounded intermediate, bit-identical merge
# ----------------------------------------------------------------------
class TestBlockedGemm:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_blocked_bit_identical_and_bounded(self, rng, precision, monkeypatch):
        """The ceiling holds at any query count: a 1-query and a 3-query
        batch call stay under it, bit-identical to the unblocked call."""
        X = rng.normal(size=(3000, 7))
        queries = rng.normal(size=(3, 7))
        masks = _random_masks(rng, 7, 24)
        ceiling = 32 * 2**10  # 32 KiB: forces many column blocks
        itemsize = 4 if precision == "float32" else 8
        for q, excludes in ((1, [11]), (3, [11, None, 2999])):
            unblocked = LinearScanIndex(X).knn_distance_prefix_batch(
                queries[:q], 5, masks, excludes=excludes, kernel="gemm",
                precision=precision,
            )
            with monkeypatch.context() as patch:
                patch.setattr(linear_module, "BATCH_CHUNK_BYTES", ceiling)
                blocked_backend = LinearScanIndex(X)
                blocked = blocked_backend.knn_distance_prefix_batch(
                    queries[:q], 5, masks, excludes=excludes, kernel="gemm",
                    precision=precision,
                )
            np.testing.assert_array_equal(blocked, unblocked)
            peak = blocked_backend.stats.snapshot()["peak_intermediate_bytes"]
            # block = max(k, ceiling // (m * itemsize)) — the k floor is the
            # only way past the budget, and these cells are far above it.
            assert peak <= max(ceiling, len(masks) * 5 * itemsize), (q, peak)

    def test_float32_blocks_twice_as_wide(self, rng, monkeypatch):
        """The chunk budget is per-dtype bytes, so float32 fits twice the
        columns — same footprint, half the block count."""
        X = rng.normal(size=(2000, 5))
        query = rng.normal(size=5)
        masks = _random_masks(rng, 5, 16)
        monkeypatch.setattr(linear_module, "BATCH_CHUNK_BYTES", 64 * 2**10)
        m, itemsize64, itemsize32 = len(masks), 8, 4
        block64 = max(5, 64 * 2**10 // (m * itemsize64))
        block32 = max(5, 64 * 2**10 // (m * itemsize32))
        assert block32 == 2 * block64
        backend = LinearScanIndex(X)
        f64 = backend.knn_distance_prefix(query, 3, masks, kernel="gemm").sum(axis=1)
        f32 = backend.knn_distance_prefix(
            query, 3, masks, kernel="gemm", precision="float32"
        ).sum(axis=1)
        np.testing.assert_allclose(f32, f64, rtol=reverify_rtol("float32", 5))


# ----------------------------------------------------------------------
# Answer-set identity across the precision tiers (the tentpole contract)
# ----------------------------------------------------------------------
class TestAnswerSetIdentity:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_miner_answer_sets_bit_identical(self, seed):
        dataset = make_planted_outliers(
            n=260, d=6, n_outliers=3, subspace_dims=2, displacement=8.5, seed=seed
        )
        kwargs = dict(k=4, sample_size=5, threshold_quantile=0.95, kernel="gemm")
        f64 = HOSMiner(precision="float64", **kwargs).fit(dataset.X)
        f32 = HOSMiner(precision="float32", **kwargs).fit(dataset.X)
        assert f64.precision_ == "float64" and f32.precision_ == "float32"
        # Calibration uses the exact kernel per point, so the threshold
        # is tier-independent — same T, same lattice decisions to match.
        assert f32.threshold_ == f64.threshold_
        targets = list(range(20)) + [dataset.X[4] + 0.25]
        for target in targets:
            a = f64.query(target)
            b = f32.query(target)
            assert a.minimal == b.minimal
            assert a.total_outlying == b.total_outlying
            assert a.is_outlier == b.is_outlier

    def test_auto_resolves_to_float32_under_gemm(self):
        dataset = make_planted_outliers(n=150, d=5, n_outliers=2, seed=2)
        miner = HOSMiner(k=3, sample_size=3, kernel="gemm", precision="auto").fit(
            dataset.X
        )
        assert miner.precision_ == "float32"
        exact = HOSMiner(k=3, sample_size=3, kernel="exact", precision="auto").fit(
            dataset.X
        )
        assert exact.precision_ == "float64"

    def test_adversarial_threshold_reverified(self, rng):
        """A threshold placed exactly on an OD value maximises the
        chance that the float32 value lands on the wrong side; the band
        re-verifies it exactly, so the decision matches float64."""
        X = rng.normal(size=(140, 6))
        backend = LinearScanIndex(X)
        exact_eval = ODEvaluator(backend, X[0], 3, exclude=0, kernel="exact")
        bitmasks = _random_masks(rng, 6, 10).tolist()
        for planted in bitmasks:
            threshold = exact_eval.od_many([planted])[planted]
            f32_eval = ODEvaluator(
                backend, X[0], 3, exclude=0, kernel="gemm", precision="float32"
            )
            values = f32_eval.od_many(bitmasks, threshold=threshold)
            exact_values = exact_eval.od_many(bitmasks)
            for mask in bitmasks:
                assert (values[mask] >= threshold) == (
                    exact_values[mask] >= threshold
                )
            assert f32_eval.reverifications >= 1  # the planted hit is in-band

    def test_reverification_counter_surfaces_in_search_stats(self):
        dataset = make_planted_outliers(n=200, d=5, n_outliers=2, seed=11)
        miner = HOSMiner(
            k=3, sample_size=4, kernel="gemm", precision="float32"
        ).fit(dataset.X)
        outcome = miner.query(0)
        stats = outcome.stats.as_dict()
        assert "reverified" in stats
        assert stats["reverified"] >= 0


# ----------------------------------------------------------------------
# VA-file: the float32 tier only sharpens the filter, never the answers
# ----------------------------------------------------------------------
class TestVAFilePrecision:
    def test_float32_filter_bit_identical(self, rng):
        X = rng.normal(size=(220, 5))
        va = VAFile(X)
        query = rng.normal(size=5)
        masks = _random_masks(rng, 5, 12)
        exact = va.knn_distance_prefix(query, 4, masks, exclude=7, kernel="exact").sum(axis=1)
        f32 = va.knn_distance_prefix(
            query, 4, masks, exclude=7, kernel="gemm", precision="float32"
        ).sum(axis=1)
        np.testing.assert_array_equal(f32, exact)

    def test_pathological_magnitudes_stay_exact(self, rng):
        """Components that overflow float32 (and products that overflow
        float64) must degrade the *filter*, not the answers: non-finite
        bounds are kept as candidates and refined exactly."""
        X = rng.normal(size=(90, 4))
        X[3] = 1e300
        va = VAFile(X)
        query = rng.normal(size=4)
        masks = _random_masks(rng, 4, 8)
        exact = va.knn_distance_prefix(query, 3, masks, kernel="exact").sum(axis=1)
        for precision in ("float64", "float32"):
            got = va.knn_distance_prefix(
                query, 3, masks, kernel="gemm", precision=precision
            ).sum(axis=1)
            np.testing.assert_array_equal(got, exact)


# ----------------------------------------------------------------------
# Batch engine under the float32 tier
# ----------------------------------------------------------------------
class TestBatchPrecision:
    def test_batched_float32_matches_sequential_float64(self):
        """Decisions are bit-identical across tiers; raw OD values are
        bit-identical within a tier (batch vs sequential float32)."""
        dataset = make_planted_outliers(n=240, d=6, n_outliers=3, seed=29)
        kwargs = dict(k=4, sample_size=5, threshold_quantile=0.95, kernel="gemm")
        reference = HOSMiner(precision="float64", **kwargs).fit(dataset.X)
        miner = HOSMiner(precision="float32", **kwargs).fit(dataset.X)
        targets = list(range(12)) + [dataset.X[8] + 0.2]
        f64_sequential = [reference.query(t) for t in targets]
        f32_sequential = [miner.query(t) for t in targets]
        batch = miner.query_batch(targets)
        for a, s, b in zip(f64_sequential, f32_sequential, batch.results):
            assert a.minimal == b.minimal
            assert a.total_outlying == b.total_outlying
            assert s.od_values == b.od_values  # exact float equality, same tier

    def test_strided_targets(self):
        """Non-contiguous query rows (a transposed/sliced view) flow
        through the float32 cast without copy-order surprises."""
        dataset = make_planted_outliers(n=160, d=5, n_outliers=2, seed=31)
        miner = HOSMiner(
            k=3, sample_size=3, kernel="gemm", precision="float32"
        ).fit(dataset.X)
        block = np.asfortranarray(dataset.X[:6])
        strided = block[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        batch = miner.query_batch(list(strided))
        for row, result in zip(strided, batch.results):
            expected = miner.query(np.ascontiguousarray(row))
            assert result.minimal == expected.minimal
            assert result.od_values == expected.od_values


# ----------------------------------------------------------------------
# Bench schema v2: percentiles, peak counters, reverify_fraction
# ----------------------------------------------------------------------
def _counting_spec():
    def _run(ctx, scale: int) -> dict:
        return {
            "scale": scale,
            "value": float(scale),
            "_counters": {
                "gemm_masks": 10 * scale,
                "reverified_masks": scale,
                "peak_intermediate_bytes": 1000 * scale,
            },
        }

    return ExperimentSpec(
        name="tiny",
        title="schema fixture",
        grid={"scale": (2,)},
        smoke={"scale": (2,)},
        run=_run,
        columns=["scale", "value"],
        expectation="fixture",
        repeats=4,
    )


class TestSnapshotSchemaV2:
    def test_percentiles_and_reverify_fraction_stamped(self):
        result = run_spec(_counting_spec(), tier="smoke")
        record = result.conditions[0]
        assert record.wall_time_p50_s >= record.wall_time_s  # min <= p50
        assert record.wall_time_p99_s >= record.wall_time_p50_s
        assert record.reverify_fraction == pytest.approx(0.1)
        snapshot = result.to_snapshot()
        assert snapshot["schema_version"] == 2
        condition = snapshot["conditions"][0]
        assert condition["wall_time_p50_s"] == record.wall_time_p50_s
        assert condition["wall_time_p99_s"] == record.wall_time_p99_s
        assert condition["reverify_fraction"] == pytest.approx(0.1)
        validate_snapshot(snapshot)

    def test_peak_counters_aggregate_by_max(self):
        def _run(ctx, scale: int):
            # Two rows: sums must add, peaks must keep the high-water mark.
            return [
                {"scale": scale, "value": 1.0, "_counters": {
                    "gemm_masks": 5, "peak_intermediate_bytes": 700}},
                {"scale": scale, "value": 2.0, "_counters": {
                    "gemm_masks": 7, "peak_intermediate_bytes": 300}},
            ]

        spec = ExperimentSpec(
            name="tiny2",
            title="peak fixture",
            grid={"scale": (1,)},
            smoke={"scale": (1,)},
            run=_run,
            columns=["scale", "value"],
            expectation="fixture",
        )
        record = run_spec(spec, tier="smoke").conditions[0]
        assert record.counters["gemm_masks"] == 12
        assert record.counters["peak_intermediate_bytes"] == 700
        # gemm masks ran but none needed re-verification: 0.0, not None.
        assert record.reverify_fraction == 0.0

    def test_reverify_fraction_zero_and_none(self):
        spec = _counting_spec()
        record = run_spec(spec, tier="smoke").conditions[0]
        assert record.reverify_fraction == pytest.approx(0.1)
        no_gemm = type(record)(
            params={}, param_hash="x", rows=[], wall_time_s=0.0,
            cpu_time_s=0.0, repeats=1, counters={"distance_computations": 3},
        )
        assert no_gemm.reverify_fraction is None
        zero = type(record)(
            params={}, param_hash="x", rows=[], wall_time_s=0.0,
            cpu_time_s=0.0, repeats=1, counters={"gemm_masks": 4},
        )
        assert zero.reverify_fraction == 0.0

    def test_validate_accepts_v1_and_v2_rejects_v3(self):
        base = {
            "schema_version": 1,
            "experiment": "e13",
            "tier": "smoke",
            "metadata": {},
            "conditions": [{"params": {}, "param_hash": "a", "rows": []}],
        }
        validate_snapshot(base)
        validate_snapshot({**base, "schema_version": 2})
        with pytest.raises(SnapshotError, match="schema_version"):
            validate_snapshot({**base, "schema_version": 3})
