"""Row shards on threads: exactness and lifecycle.

The row-shard pool must be *indistinguishable* from the sequential path
in its answers — element-wise identical, including exact OD floats —
under every kernel/precision pair and any shard count. On top of that
contract sit the runtime guarantees: the pool persists across batches,
survives a shard's exception, starts no process, restores the BLAS
thread count after every scatter, and stops its threads on ``close()``
and when it is garbage collected.
"""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import pickle
import threading

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.miner import HOSMiner
from repro.core.od import component_entry
from repro.core.shard import (
    THREAD_NAME_PREFIX,
    ShardPool,
    _openblas_threads,
    merge_prefixes,
    shard_bounds,
)
from repro.data.synthetic import make_planted_outliers
from repro.index.linear import LinearScanIndex
from repro.index.topk import topk_prefix


@pytest.fixture(scope="module")
def dataset():
    return make_planted_outliers(
        n=240, d=5, n_outliers=3, subspace_dims=2, displacement=9.0, seed=31
    )


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


def pool_threads() -> set:
    """Every live shard-pool thread, of any pool."""
    return {t for t in threading.enumerate() if t.name.startswith(THREAD_NAME_PREFIX)}


def assert_stopped(threads):
    """Every thread in *threads* ends (a finalizer stops them without
    joining, so give them a moment)."""
    for thread in threads:
        thread.join(timeout=10.0)
    assert not [thread for thread in threads if thread.is_alive()]


# ----------------------------------------------------------------------
# Building blocks: bounds and the exact k-way merge
# ----------------------------------------------------------------------
class TestShardBounds:
    def test_covers_every_row_once(self):
        for n, workers in [(10, 3), (7, 7), (100, 4), (5, 1), (3, 8)]:
            bounds = shard_bounds(n, workers)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                assert hi == lo2
            assert all(hi > lo for lo, hi in bounds)  # never empty

    def test_caps_at_n(self):
        assert len(shard_bounds(2, 8)) == 2
        assert len(shard_bounds(1, 8)) == 1


class TestMergePrefixes:
    def test_equals_global_topk(self, rng):
        k = 4
        # 3 shards with different candidate counts, inf-padded like the
        # workers pad short shards.
        widths = [6, 2, 5]
        parts = []
        pool = []
        for width in widths:
            values = np.sort(rng.normal(size=(3, 2, width)) ** 2, axis=-1)
            pool.append(values)
            padded = np.full((3, 2, k), np.inf)
            padded[..., : min(k, width)] = values[..., :k]
            parts.append(padded)
        merged = merge_prefixes(parts, k)
        everything = np.concatenate(pool, axis=-1)
        expected = topk_prefix(everything.reshape(6, -1), k).reshape(3, 2, k)
        np.testing.assert_array_equal(merged, expected)

    def test_single_part_passthrough(self, rng):
        part = np.sort(rng.normal(size=(2, 2, 3)) ** 2, axis=-1)
        np.testing.assert_array_equal(merge_prefixes([part], 3), part)


# ----------------------------------------------------------------------
# The headline contract: sharded answers are element-wise identical
# ----------------------------------------------------------------------
class TestShardedIdentity:
    @pytest.mark.parametrize(
        "kernel,precision",
        [("exact", "float64"), ("gemm", "float64"), ("gemm", "float32")],
    )
    def test_identity_across_shard_counts(self, dataset, kernel, precision, rng):
        """Property sweep: shard counts 1–4 × kernel × precision tier."""
        make = lambda: HOSMiner(  # noqa: E731
            k=4,
            sample_size=4,
            threshold_quantile=0.95,
            kernel=kernel,
            precision=precision,
        ).fit(dataset.X)
        reference = make()
        targets = list(range(10)) + [
            dataset.X[3] + 0.2,
            rng.normal(size=dataset.X.shape[1]),
        ]
        sequential = reference.query_batch(targets, workers=1)
        with make() as sharded:
            for workers in range(2, 5):  # workers=1 IS the sequential arm
                # Drop the previous count's primed ODs, else the next
                # batch is a pure cache replay and never scatters.
                sharded.od_cache_.invalidate()
                batched = sharded.query_batch(targets, workers=workers)
                assert batched.workers == workers
                assert batched.stats.shard_round_trips > 0
                assert_results_identical(sequential.results, batched.results)

    @pytest.mark.parametrize("index", ["vafile", "rstar"])
    def test_identity_other_backends(self, dataset, index):
        with HOSMiner(
            k=4, sample_size=4, threshold_quantile=0.95, index=index
        ).fit(dataset.X) as miner:
            rows = list(range(8))
            sequential = [miner.query_row(row) for row in rows]
            batched = miner.query_batch(rows, workers=3)
            assert_results_identical(sequential, batched.results)

    def test_single_query_rides_the_pool(self, dataset):
        """Satellite: a single-query batch is served by the persistent
        shard pool rather than silently dropping to in-process."""
        with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(
            dataset.X
        ) as miner:
            # An external point: dataset rows have their full-space OD
            # pre-cached by calibration, which can settle the whole
            # lattice without any scatter.
            point = dataset.X[11] * 1.05
            single = miner.query_batch([point], workers=2)
            assert single.workers == 2
            assert single.stats.shard_round_trips >= 1
            assert_results_identical([miner.query_point(point)], single.results)

    def test_pool_persists_across_batches(self, dataset):
        with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(
            dataset.X
        ) as miner:
            miner.query_batch(list(range(4)), workers=2)
            pool = miner._shard_pool
            assert pool is not None and not pool.closed
            miner.query_batch(list(range(4, 8)), workers=2)
            assert miner._shard_pool is pool  # reused, not respawned
            assert pool.round_trips > 0
            # A different worker count respawns.
            miner.query_batch(list(range(2)), workers=3)
            assert miner._shard_pool is not pool
            assert pool.closed
            # Threads, not processes.
            assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Lifecycle: close(), GC, shard exceptions, BLAS threads, staleness
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_double_close_is_idempotent(self, dataset):
        before = pool_threads()
        pool = ShardPool(dataset.X, 3)
        pool.scatter_prefixes(dataset.X[:2], np.array([0b11]), 3, [None, None], "exact", "float64")
        started = pool_threads() - before
        # At most one thread per shard but the caller's (a thread that
        # finished early may take the second shard too).
        assert 0 < len(started) <= 2
        pool.close()
        pool.close()  # second close is a no-op, not an error
        assert pool.closed
        assert not [thread for thread in started if thread.is_alive()]  # joined

    def test_use_after_close_raises_loudly(self, dataset):
        pool = ShardPool(dataset.X, 2)
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.scatter_prefixes(
                dataset.X[:1],
                np.array([0b11]),
                3,
                [None],
                "exact",
                "float64",
            ).sum(axis=-1)

    def test_pool_survives_worker_exception(self, dataset):
        with ShardPool(dataset.X, 3) as pool:
            with pytest.raises(Exception):
                pool.scatter_prefixes(
                    dataset.X[:1],
                    np.array([1 << (dataset.X.shape[1] + 5)]),
                    3,
                    [None],
                    "exact",
                    "float64",
                ).sum(axis=-1)
            # Same pool, same threads: still serving.
            out = pool.scatter_prefixes(
                dataset.X[:2],
                np.array([0b11]),
                3,
                [None, None],
                "exact",
                "float64",
            ).sum(axis=-1)
            assert out.shape == (2, 1) and np.all(np.isfinite(out))
            assert not pool.closed

    def test_two_shard_failures_raise_once_with_a_note(self, dataset):
        """Both shards raise: the first exception surfaces, its sibling
        rides along as a PEP 678 note, and the next batch is served."""
        with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X) as miner:
            first = miner.query_batch(list(range(4)), workers=2)
            pool = miner._shard_pool
            with pytest.raises(ConfigurationError, match="masks must") as excinfo:
                pool.scatter_prefixes(
                    dataset.X[:1], np.array([0]), 3, [None], "exact", "float64"
                )
            notes = getattr(excinfo.value, "__notes__", [])
            assert len(notes) == 1 and "sibling shard" in notes[0]
            miner.od_cache_.invalidate()
            again = miner.query_batch(list(range(4)), workers=2)
            assert miner._shard_pool is pool and again.stats.shard_round_trips > 0
            assert_results_identical(first.results, again.results)

    def test_dropped_miner_stops_pool_threads(self, dataset):
        before = pool_threads()
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        miner.query_batch(list(range(4)), workers=3)
        started = pool_threads() - before
        assert started
        del miner  # never closed
        gc.collect()
        assert_stopped(started)

    def test_miner_close_releases_and_respawns(self, dataset):
        before = pool_threads()
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        first = miner.query_batch(list(range(4)), workers=2)
        started = pool_threads() - before
        assert started
        miner.close()
        miner.close()  # idempotent at the miner level too
        assert not [thread for thread in started if thread.is_alive()]
        assert miner._shard_pool is None
        # The miner stays fully usable: the next batch builds a fresh pool.
        miner.od_cache_.invalidate()
        second = miner.query_batch(list(range(4)), workers=2)
        assert second.stats.shard_round_trips > 0
        assert_results_identical(first.results, second.results)
        miner.close()

    @pytest.mark.skipif(_openblas_threads() is None, reason="no OpenBLAS thread control")
    def test_blas_thread_count_restored_after_a_scatter(self, dataset):
        get, set_ = _openblas_threads()
        original = get()
        set_(ctypes.c_int(2))  # the pin must restore whatever it found
        try:
            with ShardPool(dataset.X, 2) as pool:
                pool.scatter_prefixes(
                    dataset.X[:2], np.array([0b11, 0b101]), 3, [0, 1], "gemm", "float64"
                )
                assert get() == 2
                with pytest.raises(ConfigurationError):
                    pool.scatter_prefixes(
                        dataset.X[:1], np.array([0]), 3, [None], "exact", "float64"
                    )
                assert get() == 2
        finally:
            set_(ctypes.c_int(original))

    def test_extend_closes_stale_pools(self, dataset):
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        miner.query_batch(list(range(4)), workers=2)
        pool = miner._shard_pool
        miner.extend(dataset.X[:2] + 5.0)
        assert pool.closed and miner._shard_pool is None
        # Post-extend shard batches see the new rows (fresh shards).
        sequential = [miner.query_row(row) for row in range(4)]
        batched = miner.query_batch(list(range(4)), workers=2)
        assert_results_identical(sequential, batched.results)
        miner.close()

    def test_pickled_miner_drops_pools(self, dataset):
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        miner.query_batch(list(range(2)), workers=2)
        clone = pickle.loads(pickle.dumps(miner))
        assert clone._shard_pool is None
        # The original's pool is untouched by pickling.
        assert not miner._shard_pool.closed
        miner.close()

    def test_invalid_workers_and_data(self, dataset):
        with pytest.raises(ConfigurationError, match="workers"):
            ShardPool(dataset.X, 0)
        with pytest.raises(ConfigurationError, match="non-empty"):
            ShardPool(np.empty((0, 3)), 2)


# ----------------------------------------------------------------------
# The scatter: what it returns and what it reports
# ----------------------------------------------------------------------
class TestScatter:
    def test_stats_surface_in_batch_result(self, dataset):
        with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(
            dataset.X
        ) as miner:
            batched = miner.query_batch(list(range(6)), workers=2)
            assert batched.stats.shard_round_trips > 0
            assert "shard scatter" in batched.summary()
            as_dict = batched.stats.as_dict()
            assert as_dict["shard_round_trips"] == batched.stats.shard_round_trips
            # The in-process path reports zeros, not garbage.
            inproc = miner.query_batch(list(range(2)), workers=1)
            assert inproc.stats.shard_round_trips == 0

    def test_scatter_prefixes_match_full_scan(self, rng):
        """Direct kernel check below the engine: merged prefixes equal
        a single-shard (full scan) pool's output for every kernel."""
        X = rng.normal(size=(90, 4))
        queries = rng.normal(size=(2, 4))
        masks = np.array([0b0101, 0b1010])
        excludes = [5, None]
        with ShardPool(X, 1) as reference, ShardPool(X, 4) as sharded:
            for kernel, precision in [
                ("exact", "float64"),
                ("gemm", "float64"),
                ("gemm", "float32"),
            ]:
                ref = reference.scatter_prefixes(
                    queries, masks, 5, excludes, kernel, precision
                )
                got = sharded.scatter_prefixes(
                    queries, masks, 5, excludes, kernel, precision
                )
                np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_shards_read_row_slices_of_the_callers_entries(self, rng, precision):
        """Component entries built over the whole window give every shard
        the prefixes its own rows would: the same floats as no entries
        and as the in-process kernel."""
        X = rng.normal(size=(90, 4))
        queries = rng.normal(size=(3, 4))
        masks = np.array([0b0011, 0b0110, 0b1101])
        excludes = [7, None, 61]
        backend = LinearScanIndex(X)
        entries = [component_entry(backend, query, precision) for query in queries]
        want = backend.knn_distance_prefix_batch(
            queries, 4, masks, excludes=excludes, kernel="gemm", precision=precision
        )
        with ShardPool(X, 3) as pool:
            for kernel in ("gemm", "exact"):
                bare = pool.scatter_prefixes(queries, masks, 4, excludes, kernel, precision)
                fed = pool.scatter_prefixes(
                    queries, masks, 4, excludes, kernel, precision, entries
                )
                np.testing.assert_array_equal(fed, bare)
            np.testing.assert_array_equal(
                pool.scatter_prefixes(queries, masks, 4, excludes, "gemm", precision, entries),
                want,
            )
