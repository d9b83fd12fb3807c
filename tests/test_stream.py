"""Streaming engine: differential identity against fresh-fit oracles.

The incremental path (``HOSMiner.insert`` / ``expire`` behind
:class:`repro.core.stream.StreamEngine`) exists on one condition: after
*any* interleaving of pushes and queries, every answer is element-wise
identical — ``minimal``, ``total_outlying``, exact ``od_values`` floats
— to a fresh ``fit`` on the equivalent window with the same explicit
``threshold``. This suite is that condition, executed:

* backend parity — the in-place index buffers (linear scan and VA-file)
  against freshly built indexes over the same window, including the
  out-of-grid VA-file insert regression (drifted points beyond the
  fit-time grid must stretch the outer boundary, not clamp);
* delta-cache rules — the kth-bound eviction/retention/re-keying
  algebra of :class:`repro.core.od.SharedODCache`, pinned entry by
  entry;
* the miner-level differential sweep across kernels × precisions ×
  backends × worker counts;
* seeded randomized operation sequences — every failure message carries
  the seed and the exact op list, so a red run replays by hand.

``extend`` keeps its pre-streaming invalidate-everything semantics; the
regression pin for that lives here too, next to the delta path it
contrasts with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.core.metrics import EuclideanMetric
from repro.core.miner import HOSMiner
from repro.core.od import SharedODCache, kth_bound
from repro.core.stream import StreamEngine
from repro.core.subspace import full_mask
from repro.data.synthetic import make_drift_stream
from repro.index.linear import LinearScanIndex
from repro.index.vafile import VAFile

pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul"
)

K = 4
D = 5
WINDOW = 120
BATCH = 10


def drift_windows(cycles: int = 4, drift: float = 0.3, seed: int = 170):
    """A warm window plus *cycles* drift batches from the same stream."""
    stream = make_drift_stream(
        WINDOW // BATCH + cycles, BATCH, D, drift_per_batch=drift, seed=seed
    )
    return np.vstack(stream[: WINDOW // BATCH]), stream[WINDOW // BATCH :]


def fitted(warm, threshold=None, **overrides):
    kwargs = dict(k=K, sample_size=4, seed=5)
    if threshold is None:
        kwargs["threshold_quantile"] = 0.9
    else:
        kwargs["threshold"] = threshold
    kwargs.update(overrides)
    return HOSMiner(**kwargs).fit(warm)


def assert_answers_identical(streamed, oracle, context=""):
    streamed, oracle = list(streamed), list(oracle)
    assert len(streamed) == len(oracle), context
    for a, b in zip(streamed, oracle):
        assert a.minimal == b.minimal, context
        assert a.total_outlying == b.total_outlying, context
        assert a.od_values == b.od_values, context  # exact float equality


# ----------------------------------------------------------------------
# StreamEngine window semantics
# ----------------------------------------------------------------------
class TestStreamEngineSemantics:
    def test_requires_a_fitted_miner(self):
        with pytest.raises(NotFittedError):
            StreamEngine(HOSMiner(k=K))

    def test_window_defaults_to_config_stream_window(self):
        warm, _ = drift_windows()
        engine = StreamEngine(fitted(warm, stream_window=WINDOW))
        assert engine.window == WINDOW

    def test_window_below_k_plus_one_rejected(self):
        warm, _ = drift_windows()
        with pytest.raises(ConfigurationError, match=r"k\+1"):
            StreamEngine(fitted(warm), window=K)

    def test_tree_backend_rejected_for_windowed_streaming(self):
        warm, _ = drift_windows()
        with pytest.raises(ConfigurationError, match="expiry"):
            StreamEngine(fitted(warm, index="rstar"), window=WINDOW)

    def test_tree_backend_allowed_unbounded(self):
        """Without a window nothing expires, so trees may stream inserts."""
        warm, batches = drift_windows()
        engine = StreamEngine(fitted(warm, index="rstar"), window=None)
        engine.push(batches[0])
        assert engine.occupancy == WINDOW + BATCH
        assert engine.expired == 0

    def test_push_below_capacity_expires_nothing(self):
        warm, batches = drift_windows()
        engine = StreamEngine(fitted(warm), window=WINDOW + 2 * BATCH)
        assert engine.push(batches[0]) == 0
        assert engine.occupancy == WINDOW + BATCH

    def test_push_at_capacity_expires_batch_size(self):
        warm, batches = drift_windows()
        engine = StreamEngine(fitted(warm), window=WINDOW)
        assert engine.push(batches[0]) == BATCH
        assert engine.occupancy == WINDOW

    def test_push_larger_than_window_keeps_its_tail(self):
        """An oversized push is legal: exactly the last `window` rows stay."""
        warm, _ = drift_windows()
        engine = StreamEngine(fitted(warm), window=WINDOW)
        oversize = np.vstack(drift_windows(seed=9)[1] * 5)[: WINDOW + 7]
        engine.push(oversize)
        assert engine.occupancy == WINDOW
        np.testing.assert_array_equal(
            engine.miner.backend_.data, oversize[-WINDOW:]
        )

    def test_counters_accumulate(self):
        warm, batches = drift_windows()
        engine = StreamEngine(fitted(warm), window=WINDOW)
        for rows in batches[:3]:
            engine.push(rows)
        assert engine.pushes == 3
        assert engine.inserted == 3 * BATCH
        assert engine.expired == 3 * BATCH
        assert f"occupancy={WINDOW}" in repr(engine)

    def test_close_keeps_the_miner_usable(self):
        warm, batches = drift_windows()
        with StreamEngine(fitted(warm), window=WINDOW) as engine:
            engine.push(batches[0])
        assert engine.miner.query(0).od_values  # still serving after close


# ----------------------------------------------------------------------
# Backend parity: in-place buffers vs freshly built indexes
# ----------------------------------------------------------------------
class TestBackendParity:
    @pytest.mark.parametrize("cls", [LinearScanIndex, VAFile])
    @pytest.mark.parametrize("kernel", ["exact", "gemm"])
    def test_insert_expire_matches_fresh_build(self, cls, kernel):
        warm, batches = drift_windows(cycles=5, drift=0.4)
        live = cls(warm)
        frame = warm
        masks = np.array([0b11, full_mask(D)])
        for rows in batches:
            for row in rows:
                live.insert(row)
            live.expire(rows.shape[0])
            frame = np.vstack([frame, rows])[-WINDOW:]
            np.testing.assert_array_equal(live.data, frame)
            fresh = cls(frame)
            for query in (frame[0], frame[-1], rows[0] + 3.0):
                got = live.knn_distance_prefix(query, K, masks, kernel=kernel)
                ref = fresh.knn_distance_prefix(query, K, masks, kernel=kernel)
                np.testing.assert_array_equal(got, ref)

    def test_vafile_out_of_grid_insert_regression(self):
        """Inserts beyond the fit-time grid must stretch the outer edges.

        Clamping out-of-range coordinates into the edge cells made the
        cell-gap lower bound exceed the true distance, silently pruning
        true neighbours under drift. Pin the fix: heavy drift, then
        bit-identical kNN against a fresh VA-file *and* the linear scan.
        """
        warm, batches = drift_windows(cycles=8, drift=1.5, seed=23)
        live = VAFile(warm)
        frame = warm
        masks = np.array([0b101, full_mask(D)])
        for rows in batches:
            for row in rows:
                live.insert(row)
            live.expire(rows.shape[0])
            frame = np.vstack([frame, rows])[-WINDOW:]
        assert np.any(frame.max(axis=0) > warm.max(axis=0))  # really off-grid
        for query in (frame[-1], frame[0], frame[-1] + 2.0):
            got = live.knn_distance_prefix(query, K, masks)
            np.testing.assert_array_equal(
                got, VAFile(frame).knn_distance_prefix(query, K, masks)
            )
            np.testing.assert_array_equal(
                got, LinearScanIndex(frame).knn_distance_prefix(query, K, masks)
            )

    def test_prefix_batch_agrees_with_single_prefix(self):
        """Row i of the (q, m, k) prefix batch is query i's own prefix."""
        warm, _ = drift_windows()
        masks = np.array([0b11, full_mask(D)])
        excludes = [0, 1, None]
        for cls in (LinearScanIndex, VAFile):
            index = cls(warm)
            queries = warm[:3]
            prefix = index.knn_distance_prefix_batch(
                queries, K, masks, excludes=excludes, kernel="gemm"
            )
            assert prefix.shape == (3, len(masks), K)
            for i, exclude in enumerate(excludes):
                single = index.knn_distance_prefix(
                    queries[i], K, masks, exclude=exclude, kernel="gemm"
                )
                np.testing.assert_array_equal(prefix[i], single)


# ----------------------------------------------------------------------
# Delta-cache eviction algebra
# ----------------------------------------------------------------------
class TestDeltaCache:
    MASK = (1 << D) - 1  # the full-space subspace

    def data(self):
        rng = np.random.default_rng(3)
        return rng.normal(size=(20, D))

    def test_kth_bound_inflates_by_the_band(self):
        assert kth_bound(2.0, 0.0) == 2.0
        assert kth_bound(2.0, 1e-6) == pytest.approx(2.0 + 3e-6)
        assert kth_bound(float("inf"), 0.0) == float("inf")
        assert kth_bound(float("nan"), 0.0) == float("inf")

    def test_put_records_bound(self):
        cache = SharedODCache()
        key = ("row", 0)
        cache.put(key, self.MASK, 7.0, kth=2.0)
        assert cache.kth_of(key, self.MASK) == 2.0
        cache.put(key, self.MASK, 7.0, kth=1.5)  # an overwrite carries its own bound
        assert cache.kth_of(key, self.MASK) == 1.5
        with pytest.raises(TypeError):
            cache.put(("row", 1), self.MASK, 7.0)  # every entry needs a bound

    def test_insert_keeps_far_rows_and_ties_evicts_near(self):
        data = self.data()
        cache = SharedODCache()
        cache.put(("row", 0), self.MASK, 5.0, kth=1.0)
        metric = EuclideanMetric()
        direction = np.zeros(D)
        direction[0] = 1.0
        far = data[0] + 50.0 * direction
        tie = data[0] + 1.0 * direction  # distance exactly the bound
        near = data[0] + 0.5 * direction
        grown = np.vstack([data, far, tie])
        assert cache.delta_insert(np.vstack([far, tie]), grown, metric) == (0, 1)
        assert cache.get(("row", 0), self.MASK) == 5.0
        grown = np.vstack([data, near])
        assert cache.delta_insert(near[None, :], grown, metric) == (1, 0)
        assert cache.get(("row", 0), self.MASK) is None

    def test_expire_evicts_ties_rekeys_survivors(self):
        data = self.data()
        metric = EuclideanMetric()
        cache = SharedODCache()
        cache.put(("row", 0), self.MASK, 5.0, kth=1.0)  # the expired row itself
        cache.put(("row", 5), self.MASK, 6.0, kth=1e-9)  # tight bound, survives
        ext = np.ascontiguousarray(data[7] + 30.0)
        cache.put(("ext", ext.tobytes()), self.MASK, 9.0, kth=1e-9)
        expired, shrunk = data[:2], data[2:]
        evicted, retained = cache.delta_expire(expired, 2, shrunk, metric)
        assert (evicted, retained) == (1, 2)
        # survivors re-keyed to window coordinates, bounds carried over
        assert cache.get(("row", 3), self.MASK) == 6.0
        assert cache.kth_of(("row", 3), self.MASK) == 1e-9
        assert cache.get(("ext", ext.tobytes()), self.MASK) == 9.0
        # a removed row tying the bound could have been a neighbour
        # (the bound is compared against pairwise_many's floats, so the
        # tie is manufactured with the same arithmetic)
        cache2 = SharedODCache()
        tie_kth = float(
            metric.pairwise_many(expired, data[2][None, :], np.arange(D)).min()
        )
        cache2.put(("row", 2), self.MASK, 5.0, kth=tie_kth)
        assert cache2.delta_expire(data[:2], 2, shrunk, metric) == (1, 0)

    def test_unresolvable_entries_evict(self):
        data = self.data()
        cache = SharedODCache()
        cache.put(("ext", np.zeros(D + 1).tobytes()), self.MASK, 1.0, kth=1e-9)
        cache.put(("row", 999), self.MASK, 1.0, kth=1e-9)  # beyond the window
        far = (data[0] + 100.0)[None, :]
        assert cache.delta_insert(far, np.vstack([data, far]), metric=EuclideanMetric()) == (2, 0)

    def test_pairwise_only_metric_matches_broadcasted_path(self):
        """The pairwise_many fast path and the per-row fallback agree."""

        class PairwiseOnly:
            name = "pairwise-only"

            def __init__(self):
                self._inner = EuclideanMetric()

            def pairwise(self, X, q, dims):
                return self._inner.pairwise(X, q, dims)

            def point(self, a, b, dims):
                return self._inner.point(a, b, dims)

            def mindist(self, q, lower, upper, dims):
                return self._inner.mindist(q, lower, upper, dims)

        data = self.data()
        rng = np.random.default_rng(11)
        batch = data[:3] + rng.normal(scale=4.0, size=(3, D))
        bounds = rng.uniform(0.5, 6.0, size=(8, 2))
        caches = [SharedODCache(), SharedODCache()]
        for cache in caches:
            for j, row in enumerate(range(4, 12)):
                cache.put(("row", row), self.MASK, 5.0, kth=float(bounds[j, 0]))
                cache.put(("row", row), 3, 2.0, kth=float(bounds[j, 1]))
        grown = np.vstack([data, batch])
        fast = caches[0].delta_insert(batch, grown, EuclideanMetric())
        slow = caches[1].delta_insert(batch, grown, PairwiseOnly())
        assert fast == slow
        assert caches[0]._values == caches[1]._values


    @pytest.mark.parametrize("seed", [24, 26, 48, 51])
    def test_expired_kth_neighbour_evicts_a_one_entry_group(self, seed):
        """The expired row is the query's exact full-space 3rd neighbour
        and T sits between the stale OD and the fresh one. The delta
        scan measures that one row against the one cached point; when it
        rounded differently from the kernel's scan (a one-row broadcast),
        the distance read one ulp above the exact kth bound, the entry
        survived, and the streamed miner kept the stale OD."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6))
        q = 0.3 * rng.normal(size=6)
        distances = EuclideanMetric().pairwise(X, q, np.arange(6))
        third = int(np.argsort(distances, kind="stable")[2])
        X[[0, third]] = X[[third, 0]]
        full = (1 << 6) - 1

        def od(rows):
            return float(LinearScanIndex(rows).knn(q, 3, range(6))[1].sum())

        stale, fresh = od(X), od(X[1:])
        assert stale < fresh
        threshold = (stale + fresh) / 2
        config = dict(k=3, kernel="exact", threshold=threshold, sample_size=0)
        miner = HOSMiner(**config).fit(X)
        assert miner.query_batch([q]).results[0].minimal == []
        miner.expire(1)
        streamed = miner.query_batch([q]).results[0]
        oracle = HOSMiner(**config).fit(X[1:]).query_point(q)
        assert [s.mask for s in streamed.minimal] == [full]
        assert_answers_identical([streamed], [oracle], f"seed={seed}")


# ----------------------------------------------------------------------
# extend() keeps invalidate-everything; insert() is the delta path
# ----------------------------------------------------------------------
class TestInvalidationModes:
    def warm_miner_with_cache(self, **overrides):
        warm, batches = drift_windows()
        miner = fitted(warm, stream_window=WINDOW, **overrides)
        miner.query_batch(list(range(6)))
        assert len(miner.od_cache_) > 0
        return miner, batches

    def test_extend_still_invalidates_everything(self):
        """The pre-streaming contract, pinned: extend drops every entry."""
        miner, batches = self.warm_miner_with_cache()
        miner.extend(batches[0])
        assert len(miner.od_cache_) == 0
        assert miner.od_cache_.delta_retained == 0  # never took the delta path

    def test_insert_takes_the_delta_path_by_default(self):
        miner, batches = self.warm_miner_with_cache()
        far = batches[0] + 200.0  # can't reach any cached neighbourhood
        miner.insert(far)
        assert len(miner.od_cache_) > 0
        assert miner.od_cache_.delta_retained > 0

    def test_delta_retention_never_changes_answers(self):
        """Retained entries replay the same floats a fresh fit computes."""
        warm, batches = drift_windows()
        threshold = float(fitted(warm).threshold_)
        miner = fitted(warm, threshold=threshold, stream_window=WINDOW)
        targets = list(range(6))
        miner.query_batch(targets)  # populate the cache
        engine = StreamEngine(miner)
        engine.push(batches[0] + 200.0)  # far rows: retention, not eviction
        assert miner.od_cache_.delta_retained > 0
        frame = np.vstack([warm, batches[0] + 200.0])[-WINDOW:]
        oracle = fitted(frame, threshold=threshold)
        assert_answers_identical(
            miner.query_batch(targets), oracle.query_batch(targets)
        )


# ----------------------------------------------------------------------
# The differential identity sweep
# ----------------------------------------------------------------------
class TestDifferentialIdentity:
    @pytest.mark.parametrize(
        "kernel,precision",
        [("exact", "float64"), ("gemm", "float64"), ("gemm", "float32")],
    )
    @pytest.mark.parametrize("index", ["linear", "vafile"])
    def test_stream_matches_fresh_fit_across_tiers(self, index, kernel, precision):
        warm, batches = drift_windows(cycles=4, drift=0.4)
        calibration = fitted(warm, index=index)
        threshold = float(calibration.threshold_)
        overrides = dict(
            index=index, kernel=kernel, precision=precision, threshold=threshold
        )
        rng = np.random.default_rng(29)
        probes = warm[rng.choice(WINDOW, 4, replace=False)] + 0.05
        miner = fitted(warm, **overrides)
        frame = warm
        with StreamEngine(miner, window=WINDOW) as engine:
            for cycle, rows in enumerate(batches):
                engine.push(rows)
                frame = np.vstack([frame, rows])[-WINDOW:]
                oracle = fitted(frame, **overrides)
                targets = [0, WINDOW - 1, *probes]
                context = f"{index}/{kernel}/{precision} cycle {cycle}"
                assert_answers_identical(
                    engine.query_batch(targets), oracle.query_batch(targets), context
                )
                np.testing.assert_array_equal(miner.backend_.data, frame)

    def test_stream_matches_fresh_fit_with_workers(self):
        """Live shard-pool propagation serves the same floats."""
        warm, batches = drift_windows(cycles=3, drift=0.4)
        threshold = float(fitted(warm).threshold_)
        miner = fitted(warm, threshold=threshold, stream_window=WINDOW)
        frame = warm
        with StreamEngine(miner) as engine:
            for cycle, rows in enumerate(batches):
                engine.push(rows)
                frame = np.vstack([frame, rows])[-WINDOW:]
                oracle = fitted(frame, threshold=threshold)
                targets = list(range(0, WINDOW, WINDOW // 6))
                got = engine.query_batch(targets, workers=2)
                assert_answers_identical(
                    got, oracle.query_batch(targets), f"workers=2 cycle {cycle}"
                )


# ----------------------------------------------------------------------
# Seeded randomized operation sequences (replayable on failure)
# ----------------------------------------------------------------------
def run_op_sequence(seed: int, index: str, n_ops: int = 10):
    """Random insert/expire/query interleaving, checked against oracles.

    The op list is materialised up front and carried in every assertion
    message together with the seed — a failing run prints the exact
    recipe needed to replay (and shrink) it by hand.
    """
    rng = np.random.default_rng(seed)
    warm, _ = drift_windows(seed=seed)
    threshold = float(fitted(warm, index=index).threshold_)
    ops = []
    occupancy = WINDOW
    for _ in range(n_ops):
        kind = rng.choice(["insert", "expire", "query"], p=[0.45, 0.25, 0.3])
        if kind == "insert":
            count = int(rng.integers(1, 8))
            ops.append(("insert", count, rng.normal(scale=0.4)))
            occupancy += count
        elif kind == "expire":
            count = int(rng.integers(1, min(8, occupancy - K - 1)))
            ops.append(("expire", count))
            occupancy -= count
        else:
            ops.append(("query",))
    recipe = f"seed={seed} index={index} ops={ops!r}"

    miner = fitted(warm, threshold=threshold, index=index)
    frame = warm
    engine = StreamEngine(miner, window=None)  # ops drive expiry explicitly
    for step, op in enumerate(ops):
        if op[0] == "insert":
            _, count, shift = op
            rows = rng.normal(loc=frame.mean(axis=0) + shift, size=(count, D))
            engine.push(rows)
            frame = np.vstack([frame, rows])
        elif op[0] == "expire":
            engine.miner.expire(op[1])
            frame = frame[op[1] :]
        else:
            targets = [0, frame.shape[0] - 1, frame[rng.integers(frame.shape[0])] + 0.1]
            oracle = fitted(frame, threshold=threshold, index=index)
            assert_answers_identical(
                engine.query_batch(targets),
                oracle.query_batch(targets),
                f"divergence at step {step}: {recipe}",
            )
        assert engine.occupancy == frame.shape[0], f"step {step}: {recipe}"
    # final state: one more full check so sequences ending in updates count
    oracle = fitted(frame, threshold=threshold, index=index)
    assert_answers_identical(
        engine.query_batch([0, frame.shape[0] - 1]),
        oracle.query_batch([0, frame.shape[0] - 1]),
        f"final state: {recipe}",
    )


class TestRandomizedOpSequences:
    @pytest.mark.parametrize("index", ["linear", "vafile"])
    @pytest.mark.parametrize("seed", [1701, 1702, 1703])
    def test_random_interleavings_stay_oracle_identical(self, seed, index):
        run_op_sequence(seed, index)

    def test_failure_messages_carry_the_replay_recipe(self, monkeypatch):
        """A divergence report must include seed and op list."""
        import repro.core.stream as stream_mod

        def broken_query_batch(self, targets, workers=None):
            result = HOSMiner.query_batch(self.miner, targets, workers=workers)
            for r in result.results:
                r.total_outlying += 1  # corrupt every answer
            return result

        monkeypatch.setattr(stream_mod.StreamEngine, "query_batch", broken_query_batch)
        with pytest.raises(AssertionError, match=r"seed=1701 .*ops=\[") as excinfo:
            run_op_sequence(1701, "linear")
        assert "insert" in str(excinfo.value) or "query" in str(excinfo.value)
