"""Streaming engine: differential identity against fresh-fit oracles.

The incremental path (``HOSMiner.insert`` / ``expire`` behind
:class:`repro.core.stream.StreamEngine`) exists on one condition: after
*any* interleaving of pushes and queries, every answer is element-wise
identical — ``minimal``, ``total_outlying``, exact ``od_values`` floats
— to a fresh ``fit`` on the equivalent window with the same explicit
``threshold``. This suite is that condition, executed:

* backend parity — the in-place row stores (linear scan and VA-file)
  against freshly built indexes over the same window, including the
  out-of-grid VA-file insert regression (drifted points beyond the
  fit-time grid must stretch the outer boundary, not clamp);
* delta-cache rules — the kth-bound eviction/retention algebra of
  :class:`repro.core.od.SharedODCache`, pinned entry by entry and
  checked against a per-entry reference on random caches;
* the miner-level differential sweep across kernels × precisions ×
  backends × worker counts;
* seeded randomized operation sequences — every failure message carries
  the seed and the exact op list, so a red run replays by hand.

``extend`` keeps its pre-streaming invalidate-everything semantics; the
regression pin for that lives here too, next to the delta path it
contrasts with.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.baselines.naive_search import exhaustive_search
from repro.core import od
from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.core.filtering import minimal_masks
from repro.core.metrics import EuclideanMetric, get_metric
from repro.core.miner import HOSMiner
from repro.core.od import ODEvaluator, SharedODCache, kth_bound
from repro.core.precision import reverify_rtol
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


class PairwiseOnly:
    """A custom metric with only the required views: the delta pass
    falls back to one ``pairwise`` call per batch row and mask."""

    name = "pairwise-only"

    def __init__(self):
        self._inner = EuclideanMetric()

    def pairwise(self, X, q, dims):
        return self._inner.pairwise(X, q, dims)

    def point(self, a, b, dims):
        return self._inner.point(a, b, dims)

    def mindist(self, q, lower, upper, dims):
        return self._inner.mindist(q, lower, upper, dims)


CUSTOM_METRICS = {"pairwise-only": PairwiseOnly}


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
        key = cache.point_key(self.data()[0], 0)
        cache.put(key, self.MASK, 7.0, kth=2.0)
        assert cache.kth_of(key, self.MASK) == 2.0
        cache.put(key, self.MASK, 7.0, kth=1.5)  # an overwrite carries its own bound
        assert cache.kth_of(key, self.MASK) == 1.5
        with pytest.raises(TypeError):
            cache.put(key, 3, 7.0)  # every entry needs a bound

    def test_entries_keep_every_double_bit_for_bit(self):
        """One ``complex(value, bound)`` per entry holds both doubles
        exactly: ``get``, ``kth_of`` and ``entries()`` return them bit for
        bit, before and after a delta pass rebuilds the table."""
        pairs = [
            (0.0, 0.0),
            (-0.0, 5e-324),
            (5e-324, 1e-300),
            (1e308, 2.5),
            (1.0 / 3.0, float(np.nextafter(1.0, 2.0))),
            (2.5, 1e308),
            (7.0, float("inf")),
        ]
        data = self.data()
        cache = SharedODCache()
        keys = [cache.point_key(data[row], row) for row in range(len(pairs))]
        for key, (value, bound) in zip(keys, pairs):
            cache.put(key, self.MASK, value, kth=bound)

        def bits(x):
            return float(x).hex()

        def assert_holds(rows):
            entries = cache.entries()
            assert sorted(point for point, _ in entries) == rows
            for row in rows:
                value, bound = pairs[row]
                assert bits(cache.get(keys[row], self.MASK)) == bits(value)
                assert bits(cache.kth_of(keys[row], self.MASK)) == bits(bound)
                got = entries[(row, self.MASK)]
                assert (bits(got[0]), bits(got[1])) == (bits(value), bits(bound))

        assert_holds(list(range(len(pairs))))
        # A row 100 away keeps every entry whose bound lies below that.
        far = data[0] + 100.0
        assert cache.delta_insert(far[None, :], np.vstack([data, far]), EuclideanMetric()) == (2, 5)
        assert_holds([0, 1, 2, 3, 4])

    def test_footprint_matches_traced_memory(self, monkeypatch):
        """The per-entry charge is a measurement: a cache of about 50,000
        entries over about 500 slots (12-d masks, half external points),
        trimmed twice, traces within 15% of ``footprint()``."""
        d = 12
        rng = np.random.default_rng(0)

        def fill(cache, first, slots, per_slot=100):
            for i in range(first, first + slots):
                if i % 2:
                    key = cache.point_key(np.ascontiguousarray(rng.normal(size=d)), None)
                else:
                    key = cache.point_key(np.zeros(d), i)
                masks = rng.choice(np.arange(1, 1 << d), per_slot, replace=False)
                for mask in masks.tolist():
                    cache.put(key, mask, float(rng.random()), kth=float(rng.random()))

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = SharedODCache()
            fill(cache, 0, 400)
            monkeypatch.setattr(od, "CACHE_BUDGET_BYTES", 40_000 * od._ENTRY_BYTES)
            assert cache.trim() > 0
            fill(cache, 400, 200)
            assert cache.trim() > 0
            fill(cache, 600, 160)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert 45_000 <= len(cache) <= 55_000 and 450 <= len(cache._slots) <= 550
        assert abs(traced - cache.footprint()) <= 0.15 * cache.footprint()

    def test_insert_keeps_far_rows_and_ties_evicts_near(self):
        data = self.data()
        cache = SharedODCache()
        key = cache.point_key(data[0], 0)
        cache.put(key, self.MASK, 5.0, kth=1.0)
        metric = EuclideanMetric()
        direction = np.zeros(D)
        direction[0] = 1.0
        far = data[0] + 50.0 * direction
        tie = data[0] + 1.0 * direction  # distance exactly the bound
        near = data[0] + 0.5 * direction
        grown = np.vstack([data, far, tie])
        assert cache.delta_insert(np.vstack([far, tie]), grown, metric) == (0, 1)
        assert cache.get(key, self.MASK) == 5.0
        grown = np.vstack([data, near])
        assert cache.delta_insert(near[None, :], grown, metric) == (1, 0)
        assert cache.get(key, self.MASK) is None

    def test_expire_evicts_ties_keeps_survivor_keys(self):
        data = self.data()
        metric = EuclideanMetric()
        cache = SharedODCache()
        expired_key = cache.point_key(data[0], 0)
        cache.put(expired_key, self.MASK, 5.0, kth=1.0)  # the expired row itself
        row_key = cache.point_key(data[5], 5)
        cache.put(row_key, self.MASK, 6.0, kth=1e-9)  # tight bound, survives
        ext = np.ascontiguousarray(data[7] + 30.0)
        ext_key = cache.point_key(ext, None)
        cache.put(ext_key, self.MASK, 9.0, kth=1e-9)
        expired, shrunk = data[:2], data[2:]
        evicted, retained = cache.delta_expire(expired, 2, shrunk, metric)
        assert (evicted, retained) == (1, 2)
        # rows are numbered absolutely: window row 3 is the old row 5,
        # under the same key, with its bound carried over
        assert cache.point_key(shrunk[3], 3) == row_key
        assert cache.get(row_key, self.MASK) == 6.0
        assert cache.kth_of(row_key, self.MASK) == 1e-9
        assert cache.get(ext_key, self.MASK) == 9.0
        assert cache.get(expired_key, self.MASK) is None
        # a removed row tying the bound could have been a neighbour
        # (the bound is compared against the masked pass's floats, so the
        # tie is manufactured with the same arithmetic)
        cache2 = SharedODCache()
        tie_kth = float(
            metric.pairwise_masked(expired, data[2][None, :], np.ones((1, D), bool)).min()
        )
        cache2.put(cache2.point_key(data[2], 2), self.MASK, 5.0, kth=tie_kth)
        assert cache2.delta_expire(data[:2], 2, shrunk, metric) == (1, 0)

    def test_unresolvable_entries_evict(self):
        data = self.data()
        cache = SharedODCache()
        wide = cache.point_key(np.zeros(D + 1), None)
        cache.put(wide, self.MASK, 1.0, kth=1e-9)
        beyond = cache.point_key(np.zeros(D), 999)  # beyond the window
        cache.put(beyond, self.MASK, 1.0, kth=1e-9)
        far = (data[0] + 100.0)[None, :]
        assert cache.delta_insert(far, np.vstack([data, far]), metric=EuclideanMetric()) == (2, 0)

    def test_pairwise_only_metric_matches_broadcasted_path(self):
        """The masked fast path and the per-row fallback agree."""
        data = self.data()
        rng = np.random.default_rng(11)
        batch = data[:3] + rng.normal(scale=4.0, size=(3, D))
        bounds = rng.uniform(0.5, 6.0, size=(8, 2))
        caches = [SharedODCache(), SharedODCache()]
        for cache in caches:
            for j, row in enumerate(range(4, 12)):
                key = cache.point_key(data[row], row)
                cache.put(key, self.MASK, 5.0, kth=float(bounds[j, 0]))
                cache.put(key, 3, 2.0, kth=float(bounds[j, 1]))
        grown = np.vstack([data, batch])
        fast = caches[0].delta_insert(batch, grown, EuclideanMetric())
        slow = caches[1].delta_insert(batch, grown, PairwiseOnly())
        assert fast == slow
        assert len(caches[0]) == len(caches[1])
        for row in range(4, 12):
            keys = [cache.point_key(data[row], row) for cache in caches]
            for mask in (self.MASK, 3):
                assert caches[0].get(keys[0], mask) == caches[1].get(keys[1], mask)
                assert caches[0].kth_of(keys[0], mask) == caches[1].kth_of(keys[1], mask)


    @settings(max_examples=40, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize(
        "metric_name",
        ["euclidean", "manhattan", "minkowski:3", "chebyshev", *CUSTOM_METRICS],
    )
    def test_delta_pass_matches_the_per_entry_rule(self, metric_name, data):
        """Random caches — row keys (some beyond the window), external
        keys (some of the wrong width), masks at every level, bounds on,
        one ulp either side of, or away from an exact ``pairwise``
        distance — through a few inserts and expiries: every delta call
        keeps exactly the entries the per-entry rule keeps, with their
        values and bounds, and frees every slot of an expired row."""
        custom = CUSTOM_METRICS.get(metric_name)
        metric = custom() if custom else get_metric(metric_name)
        d = data.draw(st.integers(1, 5), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        grid = data.draw(st.booleans(), label="grid")

        def draw_rows(count):
            # Small-integer coordinates make duplicate rows and exact ties.
            if grid:
                return rng.integers(-2, 3, size=(count, d)).astype(np.float64)
            return rng.normal(size=(count, d))

        window = draw_rows(data.draw(st.integers(2, 10), label="n"))
        cache, expired = SharedODCache(), 0
        reference: dict = {}  # (point identity, mask) -> (key, value, bound)
        for _ in range(data.draw(st.integers(1, 3), label="updates")):
            insert = window.shape[0] < 3 or data.draw(st.booleans(), label="insert")
            if insert:
                batch = draw_rows(data.draw(st.integers(1, 4), label="rows"))
                after = np.vstack([window, batch])
            else:
                count = data.draw(st.integers(1, window.shape[0] - 2), label="count")
                batch, after = window[:count], window[count:]
            for _ in range(data.draw(st.integers(0, 12), label="entries")):
                kind = data.draw(
                    st.sampled_from(["row", "beyond", "external", "on-batch", "wide"])
                )
                if kind in ("row", "beyond"):
                    row = int(rng.integers(window.shape[0]))
                    if kind == "beyond":
                        row += window.shape[0]
                    point = window[row] if kind == "row" else rng.normal(size=d)
                    key, ident = cache.point_key(point, row), ("row", row + expired)
                else:
                    point = {
                        "external": lambda: draw_rows(1)[0],
                        "on-batch": lambda: batch[int(rng.integers(batch.shape[0]))].copy(),
                        "wide": lambda: rng.normal(size=d + 1),
                    }[kind]()
                    key, ident = cache.point_key(point, None), ("ext", point.tobytes())
                mask = int(rng.integers(1, 1 << d))
                exact = float(rng.uniform(0.0, 4.0))
                if point.shape[0] == d:
                    dims = np.flatnonzero((mask >> np.arange(d)) & 1)
                    distances = metric.pairwise(batch, point, dims)
                    exact = float(distances[int(rng.integers(distances.size))])
                bound = {
                    "tie": exact,
                    "above": float(np.nextafter(exact, np.inf)),
                    "below": float(np.nextafter(exact, -np.inf)),
                    "random": float(rng.uniform(0.0, 4.0)),
                    "zero": 0.0,
                    "inf": float("inf"),
                }[data.draw(st.sampled_from(["tie", "above", "below", "random", "zero", "inf"]))]
                value = float(rng.normal())
                cache.put(key, mask, value, kth=bound)
                reference[(ident, mask)] = (key, value, bound)

            if insert:
                result = cache.delta_insert(batch, after, metric)
            else:
                result = cache.delta_expire(batch, count, after, metric)
                expired += count
            kept = {}
            for (ident, mask), (key, value, bound) in reference.items():
                if ident[0] == "row":
                    row = ident[1] - expired
                    point = after[row] if 0 <= row < after.shape[0] else None
                else:
                    point = np.frombuffer(ident[1], dtype=np.float64)
                    point = point if point.shape[0] == d else None
                if point is None:
                    continue
                dims = np.flatnonzero((mask >> np.arange(d)) & 1)
                nearest = metric.pairwise(batch, point, dims).min()
                if (nearest >= bound) if insert else (nearest > bound):
                    kept[(ident, mask)] = (key, value, bound)
            assert result == (len(reference) - len(kept), len(kept))
            assert len(cache) == len(kept)
            for (ident, mask), (key, value, bound) in reference.items():
                want = kept.get((ident, mask))
                assert cache.get(key, mask) == (None if want is None else value)
                assert cache.kth_of(key, mask) == (None if want is None else bound)
            assert all(row < 0 or row >= expired for row in cache._slot_row)
            reference, window = kept, after

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
# The slot table across a long stream; a pickled streamed miner
# ----------------------------------------------------------------------
class TestStreamedCacheState:
    def test_slot_table_drops_rows_that_left_the_window(self):
        warm, batches = drift_windows(cycles=40, drift=0.05)
        miner = fitted(warm, stream_window=WINDOW)
        watch = list(warm[:4] + 0.01)
        with StreamEngine(miner) as engine:
            for rows in batches:
                engine.push(rows)
                engine.query_batch(list(range(WINDOW - BATCH, WINDOW)) + watch)
        cache = miner.od_cache_
        assert cache._expired == engine.expired
        window_rows = [row for row in cache._slot_row if row >= 0]
        assert window_rows and min(window_rows) >= cache._expired
        assert len(cache._slots) <= len(cache)

    def test_pickled_streamed_miner_streams_identically(self):
        warm, batches = drift_windows(cycles=6)
        miner = fitted(warm, stream_window=WINDOW)
        targets = list(range(WINDOW - BATCH, WINDOW)) + list(warm[:3] + 0.01)
        StreamEngine(miner).push(batches[0])
        miner.query_batch(targets)
        clone = pickle.loads(pickle.dumps(miner))
        assert clone.od_cache_.entries() == miner.od_cache_.entries()
        engines = [StreamEngine(miner), StreamEngine(clone)]
        for rows in batches[1:]:
            assert engines[0].push(rows) == engines[1].push(rows)
            assert_answers_identical(miner.query_batch(targets), clone.query_batch(targets))
            assert clone.od_cache_.entries() == miner.od_cache_.entries()
            assert (clone.od_cache_.delta_evicted, clone.od_cache_.delta_retained) == (
                miner.od_cache_.delta_evicted,
                miner.od_cache_.delta_retained,
            )

    @pytest.mark.parametrize("index", ["linear", "vafile"])
    def test_scan_backends_pickle_their_window_once(self, index):
        """A backend pickles its live rows once (and the VA-file its
        codes once) — no expired head rows, no spare capacity — and
        answers do not move, also for a streamed window whose row store
        carries a head offset and spare capacity."""
        rng = np.random.default_rng(53)
        X = rng.normal(size=(2000, 6))
        miner = HOSMiner(k=K, sample_size=4, index=index).fit(X)
        engine = StreamEngine(miner, window=1990)
        targets = [0, 5, rng.normal(size=6)]
        for _ in range(3):
            backend = miner.backend_
            live = [backend.data] + ([backend._codes.data] if index == "vafile" else [])
            payload = pickle.dumps(backend)
            assert len(payload) < sum(rows.nbytes for rows in live) + 8192
            clone = pickle.loads(payload)
            np.testing.assert_array_equal(clone.data, backend.data)
            copy = pickle.loads(pickle.dumps(miner))
            assert_answers_identical(
                copy.query_batch(targets, workers=1), miner.query_batch(targets, workers=1)
            )
            engine.push(rng.normal(size=(7, 6)))

    @pytest.mark.parametrize("index", ["linear", "vafile", "rstar", "xtree"])
    def test_pickled_miner_grows_by_the_pushed_rows_only(self, index):
        """The miner keeps no copy of its window beside its backend's, and
        the backend pickles its live rows only: after a 5-row push a
        fitted miner's pickle grows by about those rows, not by a second
        window or a doubled buffer."""
        rng = np.random.default_rng(54)
        miner = HOSMiner(k=K, sample_size=4, index=index).fit(rng.normal(size=(2000, 6)))
        assert "_X" not in vars(miner)
        fitted_size = len(pickle.dumps(miner))
        rows = rng.normal(size=(5, 6))
        StreamEngine(miner, window=None).push(rows)
        assert len(pickle.dumps(miner)) <= fitted_size + rows.nbytes + 4096


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

    @pytest.mark.parametrize("refresh", ["none", "threshold", "full"])
    def test_extend_with_no_rows_keeps_everything(self, refresh):
        """Zero rows leave the window as it was: like ``insert``, ``extend``
        then keeps every cached OD, stored outcome, the live shard pool,
        ``T`` and the priors."""
        X = np.random.default_rng(60).normal(size=(60, 3))
        with HOSMiner(k=3, sample_size=4, seed=5, workers=2).fit(X) as miner:
            miner.query_batch(list(range(5)))
            cache, pool = miner.od_cache_, miner._shard_pool
            entries, outcomes = cache.entries(), dict(cache._outcomes)
            threshold, priors = miner.threshold_, miner.priors_
            assert len(entries) >= 60 and len(outcomes) == 5
            assert pool is not None and not pool.closed
            miner.extend(np.empty((0, 3)), refresh=refresh)
            assert cache.entries() == entries and cache._outcomes == outcomes
            assert miner._shard_pool is pool and not pool.closed
            assert miner.threshold_ == threshold and miner.priors_ is priors
            assert miner.backend_.size == 60
            with pytest.raises(ConfigurationError):
                miner.extend(np.empty((0, 3)), refresh="sometimes")

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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("index", ["rstar", "xtree"])
    def test_tree_stream_matches_fresh_fit(self, index, workers):
        """An unbounded tree stream inserts every pushed row into the
        grown tree, and every poll — rows and external points — equals a
        fresh fit of the same rows with the same T, in process and on two
        row shards (whose tail tree absorbs the pushes)."""
        warm, batches = drift_windows(cycles=4, drift=0.4)
        threshold = float(fitted(warm, index=index).threshold_)
        rng = np.random.default_rng(31)
        probes = warm[rng.choice(WINDOW, 3, replace=False)] + 0.05
        miner = fitted(warm, index=index, threshold=threshold)
        frame = warm
        with StreamEngine(miner, window=None) as engine:
            for cycle, rows in enumerate(batches):
                engine.push(rows)
                frame = np.vstack([frame, rows])
                np.testing.assert_array_equal(miner.backend_.data, frame)
                oracle = fitted(frame, index=index, threshold=threshold, workers=1)
                n = frame.shape[0]
                targets = [0, n // 2, n - BATCH, n - 1, *probes]
                got = engine.query_batch(targets, workers=workers)
                assert (got.stats.shard_round_trips > 0) == (workers > 1)
                assert_answers_identical(
                    got, oracle.query_batch(targets), f"{index} workers={workers} cycle {cycle}"
                )

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


# ----------------------------------------------------------------------
# Stateful model: stored outcomes under pushes, extends and eviction
# ----------------------------------------------------------------------
MODEL_WINDOW = 40
POOL_ROWS = [0, 1, 17, MODEL_WINDOW - 1]


class OutcomeModel(RuleBasedStateMachine):
    """A small windowed miner under ``push``, ``extend`` (zero rows
    included), ``query_batch``, ``query_row``, ``query_point`` and
    ``close``.

    Queries draw their targets from a pool of 4 rows and 4 external
    points, so stored outcomes replay and then meet the delta pass,
    ``extend``'s invalidation and (in the budgeted model) eviction.
    Every answer must equal a fresh fit on a copy of the window with the
    same explicit ``T``, and exhaustive search must agree on the most
    outlying one. On the exact kernel every cached value is
    ``knn(...)[1].sum()`` over the window whatever path computed it, so
    after every step sampled cache entries must hold a fresh index's
    value bit for bit, and a bound at least its kth distance.
    """

    KERNEL = "exact"

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(71)
        warm = rng.normal(size=(MODEL_WINDOW, D))
        warm[:2, :2] += 5.0
        self.threshold = float(fitted(warm).threshold_)
        self.miner = fitted(
            warm, threshold=self.threshold, stream_window=MODEL_WINDOW, kernel=self.KERNEL
        )
        self.engine = StreamEngine(self.miner)
        self.points = [warm[0] + 0.05, warm[9] + 0.1, np.full(D, 2.5), rng.normal(size=D)]

    def _rows(self, seed, count, near):
        rng = np.random.default_rng(seed)
        centre = self.points[seed % 4] if near else np.full(D, 40.0)
        return centre + rng.normal(scale=0.5, size=(count, D))

    def _check(self, targets, results):
        window = np.array(self.miner.backend_.data, copy=True)
        oracle = fitted(window, threshold=self.threshold, sample_size=0, kernel=self.KERNEL)
        assert_answers_identical(results, oracle.query_batch(targets).results)
        target, result = max(zip(targets, results), key=lambda pair: pair[1].total_outlying)
        if isinstance(target, int):
            query, exclude = window[target], target
        else:
            query, exclude = target, None
        want = exhaustive_search(
            ODEvaluator(LinearScanIndex(window), query, K, exclude=exclude), self.threshold
        )
        assert sorted(minimal_masks(want.outlying_masks)) == sorted(
            subspace.mask for subspace in result.minimal
        )
        assert len(want.outlying_masks) == result.total_outlying

    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 6), near=st.booleans())
    def push(self, seed, count, near):
        self.engine.push(self._rows(seed, count, near))

    @rule(seed=st.integers(0, 2**16), count=st.integers(0, 4))
    def extend(self, seed, count):
        cache = self.miner.od_cache_
        entries, outcomes = cache.entries(), dict(cache._outcomes)
        self.miner.extend(self._rows(seed, count, near=True))
        if count == 0:
            assert cache.entries() == entries and cache._outcomes == outcomes

    @rule(picks=st.lists(st.integers(0, 7), min_size=1, max_size=6))
    def query_batch(self, picks):
        targets = [POOL_ROWS[i] if i < 4 else self.points[i - 4] for i in picks]
        self._check(targets, self.engine.query_batch(targets).results)

    @rule(pick=st.integers(0, 3))
    def query_row(self, pick):
        row = POOL_ROWS[pick]
        self._check([row], [self.engine.query(row)])

    @rule(pick=st.integers(0, 3))
    def query_point(self, pick):
        point = self.points[pick]
        self._check([point], [self.miner.query_point(point)])

    @rule()
    def close(self):
        self.engine.close()
        assert self.miner._shard_pool is None

    @invariant()
    def cached_values_are_fresh(self):
        entries = self.miner.od_cache_.entries()
        if not entries:
            return
        window = np.array(self.miner.backend_.data, copy=True)
        fresh = LinearScanIndex(window)
        keys = list(entries)
        rtol = reverify_rtol(self.miner.precision_, D)
        picks = np.random.default_rng(len(keys)).choice(len(keys), min(8, len(keys)), replace=False)
        for (point, mask) in [keys[i] for i in picks.tolist()]:
            value, bound = entries[(point, mask)]
            if isinstance(point, bytes):
                query, exclude = np.frombuffer(point), None
            else:
                query, exclude = window[point], point
            dims = np.flatnonzero((mask >> np.arange(D)) & 1)
            distances = fresh.knn(query, K, dims, exclude=exclude)[1]
            want = float(distances.sum())
            if self.KERNEL == "exact":
                assert value == want, (point, mask)
            else:
                assert abs(value - want) <= rtol * (abs(want) + 1.0), (point, mask)
            assert bound >= distances[-1], (point, mask)

    def teardown(self):
        self.engine.close()


class BudgetedOutcomeModel(OutcomeModel):
    """The same model under a budget of a few dozen entries, so that
    ``trim`` evicts slots between calls."""

    @invariant()
    def within_budget(self):
        assert self.miner.od_cache_.footprint() <= od.CACHE_BUDGET_BYTES


class GemmOutcomeModel(OutcomeModel):
    """The same model on the default kernel (the GEMM tier): a GEMM value
    sums in BLAS order, so cached values need only lie within the tier's
    rounding band of the fresh exact value."""

    KERNEL = "auto"


class TestStoredOutcomeModel:
    def test_replays_stay_fresh_fit_identical(self):
        run_state_machine_as_test(
            OutcomeModel, settings=settings(max_examples=12, stateful_step_count=12, deadline=None)
        )

    def test_gemm_tier_replays_stay_fresh_fit_identical(self):
        run_state_machine_as_test(
            GemmOutcomeModel,
            settings=settings(max_examples=12, stateful_step_count=12, deadline=None),
        )

    def test_eviction_keeps_answers_and_the_budget(self, monkeypatch):
        monkeypatch.setattr(od, "CACHE_BUDGET_BYTES", 40 * od._ENTRY_BYTES)
        run_state_machine_as_test(
            BudgetedOutcomeModel,
            settings=settings(max_examples=12, stateful_step_count=12, deadline=None),
        )


# ----------------------------------------------------------------------
# Stateful model: a sharded stream against fresh in-process fits
# ----------------------------------------------------------------------
class ShardedStreamModel(RuleBasedStateMachine):
    """A windowed miner whose batches run on a live shard pool, under
    ``push``, ``query_batch`` polls and ``close``.

    Pushes reach the pool in place (tail inserts, head expiries, a
    rebuild when the head shard would drain); ``close`` drops the pool
    and the next poll builds a fresh one. Every poll must equal a fresh
    ``workers=1`` fit on a copy of the window with the same explicit
    ``T``, down to exact ``od_values`` floats, and the live shards must
    hold the window in order.
    """

    INDEX = "linear"
    WORKERS = 2

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(83)
        warm = rng.normal(size=(MODEL_WINDOW, D))
        warm[:2, :2] += 5.0
        self.threshold = float(fitted(warm, index=self.INDEX).threshold_)
        self.miner = fitted(
            warm,
            threshold=self.threshold,
            index=self.INDEX,
            stream_window=MODEL_WINDOW,
            workers=self.WORKERS,
        )
        self.engine = StreamEngine(self.miner)
        self.points = [warm[0] + 0.05, np.full(D, 2.5), rng.normal(size=D)]

    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 9), near=st.booleans())
    def push(self, seed, count, near):
        rng = np.random.default_rng(seed)
        centre = self.points[seed % 3] if near else np.full(D, 30.0)
        self.engine.push(centre + rng.normal(scale=0.5, size=(count, D)))

    @rule(picks=st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def poll(self, picks):
        targets = [POOL_ROWS[i] if i < 4 else self.points[i - 4] for i in picks]
        batch = self.engine.query_batch(targets)
        assert batch.workers == self.WORKERS
        window = np.array(self.miner.backend_.data, copy=True)
        oracle = fitted(window, threshold=self.threshold, index=self.INDEX, sample_size=0)
        assert_answers_identical(batch.results, oracle.query_batch(targets, workers=1).results)

    @rule()
    def close(self):
        self.engine.close()
        assert self.miner._shard_pool is None

    @invariant()
    def shards_hold_the_window(self):
        pool = self.miner._shard_pool
        if pool is None:
            return
        window = self.miner.backend_.data
        np.testing.assert_array_equal(
            np.concatenate([backend.data for backend in pool._backends]), window
        )
        lo = 0
        for (start, stop), backend in zip(pool._bounds, pool._backends):
            assert (start, stop) == (lo, lo + backend.size)
            lo = stop
        assert lo == pool.n == window.shape[0]

    def teardown(self):
        self.engine.close()


class ThreeShardStreamModel(ShardedStreamModel):
    WORKERS = 3


class VAFileShardedStreamModel(ShardedStreamModel):
    INDEX = "vafile"


class TestShardedStreamModel:
    @pytest.mark.parametrize(
        "model", [ShardedStreamModel, ThreeShardStreamModel, VAFileShardedStreamModel]
    )
    def test_live_shards_stay_fresh_fit_identical(self, model):
        run_state_machine_as_test(
            model, settings=settings(max_examples=10, stateful_step_count=12, deadline=None)
        )
