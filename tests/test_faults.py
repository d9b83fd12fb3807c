"""Chaos suite: the shard engine under injected crashes, hangs, stalls.

The fault-tolerance contract extends the identity contract of
``test_shard.py``: under any injected single-worker crash or hang,
``query_batch`` answers stay *element-wise identical* to the sequential
kernels — across every kernel × precision tier — and the supervision
counters (``worker_respawns`` / ``timeouts`` / ``retries`` /
``degraded_rounds``) faithfully reflect what happened. On top sit the
crash-timing edge cases the identity sweep can't reach: death between
the coordinator's ``send()`` and ``recv()``, death during fit-time
segment attach, a ``close()`` racing an in-flight round, and bounded
teardown against a worker that ignores the shutdown sentinel.

Every test pins its own fault spec (via the ``faults=`` pool argument
or :func:`repro.testing.faults.fault_env`), so the suite is stable even
under the CI chaos job's ambient ``HOSMINER_FAULTS``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import HOSMinerConfig
from repro.core.exceptions import ConfigurationError
from repro.core.miner import HOSMiner
from repro.core.od import knn_prefixes
from repro.core.shard import ShardPool
from repro.core.stream import StreamEngine
from repro.data.synthetic import make_drift_stream, make_planted_outliers
from repro.index.linear import LinearScanIndex
from repro.testing.faults import (
    CRASH_EXIT_CODE,
    FaultClause,
    FaultPlan,
    fault_env,
    parse_faults,
)


@pytest.fixture(scope="module")
def dataset():
    return make_planted_outliers(
        n=240, d=5, n_outliers=3, subspace_dims=2, displacement=9.0, seed=31
    )


@pytest.fixture()
def scatter_args(dataset, rng):
    queries = np.ascontiguousarray(dataset.X[:4])
    masks = np.array([0b00011, 0b11100, 0b10101])
    return queries, masks, 4, [0, 1, 2, 3]


def reference_prefixes(dataset, scatter_args, kernel="exact", precision="float64"):
    queries, masks, k, excludes = scatter_args
    with ShardPool(dataset.X, 1, faults="") as pool:
        return pool.scatter_prefixes(
            queries, masks, k, excludes, kernel, precision
        )


def assert_results_identical(sequential, batched):
    """Element-wise identity, down to exact OD floats (as in test_shard)."""
    assert len(sequential) == len(batched)
    for a, b in zip(sequential, batched):
        assert a.minimal == b.minimal
        assert a.total_outlying == b.total_outlying
        assert a.od_values == b.od_values  # exact float equality


# ----------------------------------------------------------------------
# The spec grammar
# ----------------------------------------------------------------------
class TestFaultGrammar:
    def test_parses_the_documented_clauses(self):
        clauses = parse_faults(
            "crash:shard=1:round=3; hang:shard=0:round=2, slow:ms=500"
        )
        assert [c.kind for c in clauses] == ["crash", "hang", "slow"]
        assert clauses[0] == FaultClause("crash", shard=1, round=3)
        assert clauses[1] == FaultClause("hang", shard=0, round=2)
        assert clauses[2].ms == 500.0 and clauses[2].shard is None

    def test_empty_specs_parse_to_nothing(self):
        assert parse_faults(None) == ()
        assert parse_faults("") == ()
        assert parse_faults("  ;  ,  ") == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:shard=0",          # unknown kind
            "crash:shard=x",            # non-integer shard
            "crash:round=0",            # rounds are 1-based
            "crash:at=gather",          # unknown consult point
            "crash:at=attach:round=2",  # attach fires before any round
            "crash:ms=50",              # ms only applies to slow
            "slow:ms=-1",               # negative sleep
            "crash:badfield=1",         # unknown field
            "crash:shard",              # not key=value
        ],
    )
    def test_bad_clauses_fail_loudly(self, bad):
        with pytest.raises(ConfigurationError, match="bad fault clause"):
            parse_faults(bad)

    def test_gen_selects_incarnations(self):
        (clause,) = parse_faults("crash:shard=0:round=1")
        assert clause.matches(shard=0, gen=0, point="recv", round=1)
        # Default gen=0: the respawned incarnation serves clean.
        assert not clause.matches(shard=0, gen=1, point="recv", round=1)
        (persistent,) = parse_faults("crash:shard=0:gen=any")
        assert persistent.matches(shard=0, gen=7, point="recv", round=9)

    def test_plan_filters_to_its_shard(self):
        plan = FaultPlan.from_spec("crash:shard=1:round=3; slow:ms=5", 0, 0)
        assert [c.kind for c in plan.clauses] == ["slow"]
        # An unmatched fire is a no-op (and a slow one just sleeps).
        plan.fire("recv", 1)

    def test_pool_validates_spec_eagerly(self, dataset):
        with pytest.raises(ConfigurationError, match="bad fault clause"):
            ShardPool(dataset.X, 2, faults="explode:shard=0")

    def test_fault_env_sets_and_restores(self, monkeypatch):
        monkeypatch.setenv("HOSMINER_FAULTS", "slow:ms=1")
        import os

        with fault_env("crash:shard=0"):
            assert os.environ["HOSMINER_FAULTS"] == "crash:shard=0"
        assert os.environ["HOSMINER_FAULTS"] == "slow:ms=1"
        with fault_env(None):
            assert "HOSMINER_FAULTS" not in os.environ
        assert os.environ["HOSMINER_FAULTS"] == "slow:ms=1"


# ----------------------------------------------------------------------
# The headline contract: identity under faults, counters truthful
# ----------------------------------------------------------------------
class TestIdentityUnderFaults:
    @pytest.mark.parametrize(
        "kernel,precision",
        [("exact", "float64"), ("gemm", "float64"), ("gemm", "float32")],
    )
    def test_query_batch_identical_under_crash(self, dataset, kernel, precision):
        """A worker crash mid-batch is invisible in the answers, across
        every kernel × precision tier; the respawn is in the counters."""
        make = lambda: HOSMiner(  # noqa: E731
            k=4,
            sample_size=4,
            threshold_quantile=0.95,
            kernel=kernel,
            precision=precision,
            timeout_s=15.0,
            backoff_s=0.01,
        ).fit(dataset.X)
        targets = list(range(8))
        with fault_env(None):
            sequential = make().query_batch(targets, workers=1)
        with fault_env("crash:shard=1:round=2"):
            with make() as miner:
                batched = miner.query_batch(targets, workers=3)
                assert batched.stats.worker_respawns == 1
                assert batched.stats.retries >= 1
                assert batched.stats.degraded_rounds == 0
                assert_results_identical(sequential.results, batched.results)
                # The respawned worker keeps serving: a second batch on
                # the same pool is identical too, with no new respawns.
                miner.od_cache_.invalidate()
                again = miner.query_batch(targets, workers=3)
                assert again.stats.worker_respawns == 0
                assert_results_identical(sequential.results, again.results)

    def test_query_batch_identical_under_hang(self, dataset):
        """A hung worker trips the reply deadline, is killed and
        respawned; answers unchanged, ``timeouts`` reflects it."""
        targets = list(range(8))
        with fault_env(None):
            sequential = (
                HOSMiner(k=4, sample_size=4, threshold_quantile=0.95)
                .fit(dataset.X)
                .query_batch(targets, workers=1)
            )
        with fault_env("hang:shard=0:round=2"):
            with HOSMiner(
                k=4,
                sample_size=4,
                threshold_quantile=0.95,
                timeout_s=0.5,
                backoff_s=0.01,
            ).fit(dataset.X) as miner:
                batched = miner.query_batch(targets, workers=3)
        assert batched.stats.timeouts >= 1
        assert batched.stats.worker_respawns >= 1
        assert_results_identical(sequential.results, batched.results)

    def test_slow_worker_is_not_a_failure(self, dataset, scatter_args):
        """A straggler under the deadline just makes the round slower."""
        queries, masks, k, excludes = scatter_args
        ref = reference_prefixes(dataset, scatter_args)
        with ShardPool(
            dataset.X, 3, timeout_s=10.0, faults="slow:shard=1:ms=50"
        ) as pool:
            got = pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert pool.respawns == 0 and pool.timeouts == 0
        np.testing.assert_array_equal(got, ref)

    def test_fault_counters_surface_in_summary_and_dict(self, dataset):
        with fault_env("crash:shard=0:round=1"):
            with HOSMiner(
                k=4,
                sample_size=4,
                threshold_quantile=0.95,
                timeout_s=15.0,
                backoff_s=0.01,
            ).fit(dataset.X) as miner:
                batched = miner.query_batch(list(range(4)), workers=2)
        assert batched.stats.worker_respawns == 1
        assert "fault recovery" in batched.summary()
        as_dict = batched.stats.as_dict()
        assert as_dict["worker_respawns"] == 1
        assert as_dict["retries"] == batched.stats.retries
        assert as_dict["timeouts"] == batched.stats.timeouts
        assert as_dict["degraded_rounds"] == 0

    def test_healthy_batches_report_zero_fault_counters(self, dataset):
        with fault_env(None):
            with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(
                dataset.X
            ) as miner:
                batched = miner.query_batch(list(range(4)), workers=2)
                inproc = miner.query_batch(list(range(2)), workers=1)
        for stats in (batched.stats, inproc.stats):
            assert stats.worker_respawns == 0
            assert stats.retries == 0
            assert stats.timeouts == 0
            assert stats.degraded_rounds == 0
        assert "fault recovery" not in batched.summary()


# ----------------------------------------------------------------------
# Graceful degradation: irrecoverable shards served in-process
# ----------------------------------------------------------------------
class TestDegradation:
    def test_irrecoverable_shard_degrades_with_identical_answers(
        self, dataset, scatter_args
    ):
        """``gen=any`` makes every respawn crash too: the retry budget
        drains, the shard degrades, and the coordinator serves its slice
        through the same kernels — element-wise identical, permanently."""
        queries, masks, k, excludes = scatter_args
        ref = reference_prefixes(dataset, scatter_args)
        with ShardPool(
            dataset.X,
            3,
            timeout_s=5.0,
            max_retries=1,
            backoff_s=0.01,
            faults="crash:shard=2:gen=any",
        ) as pool:
            first = pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert pool.degraded_shards == [2]
            assert pool.degraded_rounds == 1
            assert pool.retries == 1
            # The pool stays open and keeps serving; later rounds hit
            # the in-process fallback directly (no more retries).
            second = pool.scatter_prefixes(
                queries, masks, k, excludes, "gemm", "float64"
            )
            assert pool.degraded_rounds == 2
            assert pool.retries == 1
        np.testing.assert_array_equal(first, ref)
        np.testing.assert_array_equal(
            second, reference_prefixes(dataset, scatter_args, "gemm", "float64")
        )

    def test_degraded_counters_flow_through_query_batch(self, dataset):
        targets = list(range(6))
        with fault_env(None):
            sequential = (
                HOSMiner(k=4, sample_size=4, threshold_quantile=0.95)
                .fit(dataset.X)
                .query_batch(targets, workers=1)
            )
        with fault_env("crash:shard=0:gen=any"):
            with HOSMiner(
                k=4,
                sample_size=4,
                threshold_quantile=0.95,
                timeout_s=5.0,
                max_retries=1,
                backoff_s=0.01,
            ).fit(dataset.X) as miner:
                batched = miner.query_batch(targets, workers=2)
        assert batched.stats.degraded_rounds >= 1
        assert "degraded shard-round" in batched.summary()
        assert_results_identical(sequential.results, batched.results)

    def test_max_retries_zero_degrades_immediately(self, dataset, scatter_args):
        queries, masks, k, excludes = scatter_args
        with ShardPool(
            dataset.X,
            3,
            timeout_s=5.0,
            max_retries=0,
            faults="crash:shard=1:round=1",
        ) as pool:
            got = pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert pool.retries == 0 and pool.respawns == 0
            assert pool.degraded_shards == [1]
        np.testing.assert_array_equal(got, reference_prefixes(dataset, scatter_args))


# ----------------------------------------------------------------------
# Crash-timing edge cases the identity sweep can't reach
# ----------------------------------------------------------------------
class TestCrashTiming:
    def test_death_between_send_and_recv(self, dataset, scatter_args):
        """``at=recv`` (the default) kills the worker after it received
        the request — from the coordinator's side, exactly a death
        between its ``send()`` and ``recv()``: the send succeeded, the
        reply never comes, ``poll()`` wakes on EOF."""
        queries, masks, k, excludes = scatter_args
        ref = reference_prefixes(dataset, scatter_args)
        with ShardPool(
            dataset.X,
            3,
            timeout_s=15.0,
            backoff_s=0.01,
            faults="crash:shard=1:round=1:at=recv",
        ) as pool:
            got = pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert pool.respawns == 1
            assert pool.timeouts == 0  # EOF wake-up, not a deadline expiry
        np.testing.assert_array_equal(got, ref)

    def test_death_after_compute_before_reply(self, dataset, scatter_args):
        """``at=send`` kills the worker after computing, before the
        reply hits the pipe — the replayed round recomputes and the
        caller still can't tell."""
        queries, masks, k, excludes = scatter_args
        ref = reference_prefixes(dataset, scatter_args)
        with ShardPool(
            dataset.X,
            3,
            timeout_s=15.0,
            backoff_s=0.01,
            faults="crash:shard=0:round=1:at=send",
        ) as pool:
            got = pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert pool.respawns == 1
        np.testing.assert_array_equal(got, ref)

    def test_death_during_segment_attach(self, dataset, scatter_args):
        """A worker that dies attaching its segment at spawn (fit time)
        is caught by the first round's EOF and respawned — the respawn
        (gen=1) attaches cleanly and the round replays."""
        queries, masks, k, excludes = scatter_args
        ref = reference_prefixes(dataset, scatter_args)
        with ShardPool(
            dataset.X,
            3,
            timeout_s=15.0,
            backoff_s=0.01,
            faults="crash:shard=0:at=attach",
        ) as pool:
            got = pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert pool.respawns == 1
        np.testing.assert_array_equal(got, ref)

    def test_regrowing_update_before_workers_attach(self):
        """A pool returns before its workers attach their segments, and a
        fresh tail shard has no spare rows, so an immediate insert regrows
        the tail segment. The old segment must outlive the sync, or a
        worker that has not attached yet dies on it."""
        X = np.random.default_rng(0).normal(size=(6400, 8))
        masks = np.array([0b11111111, 0b00100010])
        for trial in range(5):
            rows = np.random.default_rng(trial).normal(size=(32, 8))
            window = np.vstack([X[32:], rows])
            queries = window[[0, 3000, 6399]]
            excludes = [0, 3000, 6399]
            ref = knn_prefixes(
                LinearScanIndex(window), queries, masks, 5, excludes, "exact", "float64"
            )
            with ShardPool(X, 2, timeout_s=5.0, faults="") as pool:
                assert pool.apply_update(rows, 32)
                assert pool.tail_regrows == 1
                got = pool.scatter_prefixes(
                    queries, masks, 5, excludes, "exact", "float64"
                )
                assert pool.respawns == 0, f"trial {trial}"
            np.testing.assert_array_equal(got, ref)

    def test_injected_crash_exitcode_is_visible(self, dataset, scatter_args):
        """The supervisor sees the distinctive injected exitcode — the
        crash really is a process death, not a caught exception."""
        queries, masks, k, excludes = scatter_args
        with ShardPool(
            dataset.X,
            3,
            timeout_s=15.0,
            backoff_s=0.01,
            faults="crash:shard=1:round=1",
        ) as pool:
            doomed = pool._procs[1]
            pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert doomed.exitcode == CRASH_EXIT_CODE
            assert pool._procs[1] is not doomed

    def test_close_racing_inflight_round(self, dataset, scatter_args):
        """``close()`` while a slow round is in flight: the round either
        completes or fails loudly, close() stays bounded, and no
        shared-memory segment leaks. Never a hang, never a respawn onto
        an unlinked segment."""
        queries, masks, k, excludes = scatter_args
        pool = ShardPool(
            dataset.X,
            3,
            timeout_s=5.0,
            backoff_s=0.01,
            faults="slow:ms=300",
        )
        names = pool.segment_names
        outcome: dict = {}

        def scatter():
            try:
                outcome["result"] = pool.scatter_prefixes(
                    queries, masks, k, excludes, "exact", "float64"
                )
            except Exception as exc:  # racing close() may surface here
                outcome["error"] = exc

        thread = threading.Thread(target=scatter)
        thread.start()
        time.sleep(0.05)  # let the scatter reach the slow workers
        start = time.perf_counter()
        pool.close()
        assert time.perf_counter() - start < 15.0
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "scatter wedged against close()"
        assert pool.closed
        if "result" in outcome:
            np.testing.assert_array_equal(
                outcome["result"], reference_prefixes(dataset, scatter_args)
            )
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_is_bounded_against_hung_worker(self, dataset, scatter_args):
        """A worker wedged in a 600 s hang cannot stall teardown: the
        sentinel grace expires, ``terminate()``/``kill()`` escalate, and
        ``close()`` returns in bounded time with segments unlinked."""
        queries, masks, k, excludes = scatter_args
        pool = ShardPool(
            dataset.X,
            3,
            timeout_s=None,  # no deadline: the hang would block forever
            faults="hang:shard=1:round=1",
        )
        names = pool.segment_names
        # Park shard 1 in the hang without blocking ourselves on it.
        pool._conns[1].send(
            (queries, masks, k, [None] * len(excludes), "exact", "float64")
        )
        time.sleep(0.2)  # let the worker enter the sleep
        start = time.perf_counter()
        pool.close()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"close() took {elapsed:.1f}s against a hung worker"
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Supervision surface: ping, error aggregation, knobs
# ----------------------------------------------------------------------
class TestSupervisionSurface:
    def test_ping_reports_health_and_marks_dead(self, dataset, scatter_args):
        queries, masks, k, excludes = scatter_args
        with ShardPool(dataset.X, 3, timeout_s=5.0, backoff_s=0.01, faults="") as pool:
            assert pool.ping() == [True, True, True]
            # Kill one worker out-of-band: ping detects it and marks the
            # shard dead; the next scatter respawns it transparently.
            pool._procs[2].kill()
            pool._procs[2].join(timeout=5.0)
            assert pool.ping() == [True, True, False]
            got = pool.scatter_prefixes(
                queries, masks, k, excludes, "exact", "float64"
            )
            assert pool.respawns == 1
            assert pool.ping() == [True, True, True]
        np.testing.assert_array_equal(got, reference_prefixes(dataset, scatter_args))

    def test_multi_shard_errors_attach_notes(self, dataset):
        """Every failing shard's exception survives: the first is
        raised, the siblings ride along as PEP 678 ``__notes__``."""
        with ShardPool(dataset.X, 3, faults="") as pool:
            bad_masks = np.array([1 << (dataset.X.shape[1] + 5)])
            with pytest.raises(Exception) as excinfo:
                pool.scatter_prefixes(
                    dataset.X[:1], bad_masks, 3, [None], "exact", "float64"
                )
            notes = getattr(excinfo.value, "__notes__", [])
            sibling_notes = [n for n in notes if "sibling shard" in n]
            assert len(sibling_notes) == 2  # 3 shards failed, 2 as notes
            assert not pool.closed  # the pool survives bad requests

    def test_config_knobs_validate(self):
        assert HOSMinerConfig(timeout_s=None).timeout_s is None
        assert HOSMinerConfig(timeout_s=1.5).timeout_s == 1.5
        with pytest.raises(ConfigurationError, match="timeout_s"):
            HOSMinerConfig(timeout_s=-1.0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            HOSMinerConfig(max_retries=-1)
        with pytest.raises(ConfigurationError, match="backoff_s"):
            HOSMinerConfig(backoff_s=-0.1)

    def test_timeout_env_default(self, monkeypatch):
        monkeypatch.delenv("HOSMINER_TIMEOUT_S", raising=False)
        assert HOSMinerConfig().timeout_s == 30.0
        monkeypatch.setenv("HOSMINER_TIMEOUT_S", "2.5")
        assert HOSMinerConfig().timeout_s == 2.5
        for disabled in ("none", "off", "0", ""):
            monkeypatch.setenv("HOSMINER_TIMEOUT_S", disabled)
            assert HOSMinerConfig().timeout_s is None
        monkeypatch.setenv("HOSMINER_TIMEOUT_S", "soon")
        with pytest.raises(ConfigurationError, match="HOSMINER_TIMEOUT_S"):
            HOSMinerConfig()

    def test_pool_knobs_validate(self, dataset):
        with pytest.raises(ConfigurationError, match="timeout_s"):
            ShardPool(dataset.X, 2, timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            ShardPool(dataset.X, 2, max_retries=-1)
        with pytest.raises(ConfigurationError, match="backoff_s"):
            ShardPool(dataset.X, 2, backoff_s=-0.5)


# ----------------------------------------------------------------------
# Streaming chaos: faults during incremental window updates
# ----------------------------------------------------------------------
class TestStreamChaos:
    """The chaos face of the differential suite in ``test_stream.py``.

    A live row-shard pool absorbs window updates through per-shard
    ``sync`` messages; these tests kill, hang, or permanently degrade
    workers exactly there and require the one thing that matters: after
    recovery, every answer is still element-wise identical to a fresh
    fit on the equivalent window with the same explicit threshold.
    """

    WINDOW = 160

    def drift(self, cycles=3):
        stream = make_drift_stream(
            self.WINDOW // 10 + cycles, 10, 5, drift_per_batch=0.4, seed=41
        )
        return np.vstack(stream[: self.WINDOW // 10]), stream[self.WINDOW // 10 :]

    def streaming_miner(self, warm, threshold, **overrides):
        kwargs = dict(
            k=4,
            sample_size=4,
            threshold=threshold,
            seed=5,
            stream_window=self.WINDOW,
            timeout_s=15.0,
            backoff_s=0.01,
        )
        kwargs.update(overrides)
        return HOSMiner(**kwargs).fit(warm)

    def calibrate(self, warm):
        with fault_env(None):
            return float(
                HOSMiner(k=4, sample_size=4, threshold_quantile=0.9, seed=5)
                .fit(warm)
                .threshold_
            )

    def oracle_answers(self, frame, threshold, targets):
        with fault_env(None):
            miner = HOSMiner(k=4, sample_size=4, threshold=threshold, seed=5)
            return miner.fit(frame).query_batch(targets, workers=1)

    def run_chaos_stream(self, faults, **miner_overrides):
        """Push a drift stream through a live pool under *faults*; check
        every post-recovery answer against fresh-fit oracles."""
        warm, batches = self.drift()
        threshold = self.calibrate(warm)
        targets = list(range(8))
        with fault_env(faults):
            with self.streaming_miner(warm, threshold, **miner_overrides) as miner:
                engine = StreamEngine(miner)
                # Spawn the live pool before any update reaches it.
                miner.query_batch(targets, workers=2)
                pool = miner._shard_pool
                assert pool is not None
                frame = warm
                for rows in batches:
                    engine.push(rows)
                    frame = np.vstack([frame, rows])[-self.WINDOW :]
                    batched = miner.query_batch(targets, workers=2)
                    oracle = self.oracle_answers(frame, threshold, targets)
                    assert_results_identical(oracle.results, batched.results)
        return pool, miner

    def test_crash_during_sync_stays_oracle_identical(self):
        """A worker killed on receipt of a window-update sync is
        respawned onto the updated geometry; answers never notice."""
        pool, miner = self.run_chaos_stream("crash:shard=1:at=sync")
        assert pool.respawns >= 1

    def test_hang_during_sync_stays_oracle_identical(self):
        """A worker that hangs mid-sync trips the reply deadline and is
        killed + respawned; answers never notice."""
        pool, miner = self.run_chaos_stream(
            "hang:shard=1:at=sync", timeout_s=0.5
        )
        assert pool.timeouts >= 1
        assert pool.respawns >= 1

    def test_degraded_shard_follows_window_updates(self):
        """A shard degraded before the stream starts keeps serving
        in-process over every subsequent window update."""
        pool, miner = self.run_chaos_stream("crash:shard=0:gen=any")
        assert 0 in pool.degraded_shards

    def test_update_with_no_live_pool_respawns_cleanly(self):
        """Pushes with no pool (or a closed one) leave nothing stale:
        the next sharded batch spawns a pool over the current window."""
        warm, batches = self.drift()
        threshold = self.calibrate(warm)
        targets = list(range(8))
        with fault_env(None):
            with self.streaming_miner(warm, threshold) as miner:
                engine = StreamEngine(miner)
                frame = warm
                for rows in batches:
                    engine.push(rows)
                    frame = np.vstack([frame, rows])[-self.WINDOW :]
                batched = miner.query_batch(targets, workers=2)
                oracle = self.oracle_answers(frame, threshold, targets)
                assert_results_identical(oracle.results, batched.results)
