"""The four workloads: seeded inputs, set-up, and one timed step each.

Every workload is a closed loop with one client in one process: the
next call is sent when the previous one returns. Inputs come only from
the ``--seed`` argument, through the package's own generators
(``make_planted_outliers``, ``make_drift_stream``) used read-only; the
miner sees nothing but the generated arrays and targets.

A workload object owns its inputs and the served miner and offers:

``setup()``   fit a fresh miner plus any lazy set-up a user pays before
              the first answer (timed as ``setup_s``);
``warm()``    untimed calls that fill caches a long-running deployment
              has warm, so timing starts with caches filled;
``prelude()`` one-off timed calls in a fixed order before the loop;
``step(i)``   one timed unit of the closed loop, returning a :class:`Step`;
``check()``   oracle comparison of the answers sampled during the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.miner import HOSMiner
from repro.core.stream import StreamEngine
from repro.data.synthetic import make_drift_stream, make_planted_outliers

import oracle

__all__ = ["WORKLOADS", "Step"]

clock = time.perf_counter


@dataclass
class Step:
    """One timed unit of a workload's loop."""

    #: Wall time of the unit, seconds (the ``p50_ms``/``p90_ms`` sample).
    seconds: float
    #: Targets answered by the unit.
    targets: int
    #: API calls the unit made.
    calls: int
    #: Named sub-timings, seconds (e.g. ``push`` and ``batch``).
    parts: dict[str, float] = field(default_factory=dict)
    #: ``SearchStats`` of every answered search (batch aggregates or
    #: per-query stats).
    stats: list = field(default_factory=list)
    knn_evaluations: int = 0
    shared_hits: int = 0


def _points_near(rng: np.random.Generator, X: np.ndarray, rows) -> list[np.ndarray]:
    """External points next to dataset *rows*: the rows plus small noise."""
    return list(X[rows] + rng.normal(scale=0.05, size=(len(rows), X.shape[1])))


# ----------------------------------------------------------------------
# batch-traffic / batch-sharded
# ----------------------------------------------------------------------
class BatchTraffic:
    """Successive ``query_batch`` calls of traffic-shaped targets.

    n=8000, d=12 planted-outlier data (16 outliers in 2-3-dim
    subspaces), linear backend, config-default kernel and precision.
    Every batch holds 64 targets in fixed proportions, shuffled:
    10 re-polls of the hot set (7 of the planted outliers and 3 of the
    4 hot rows and 4 hot external points), 26 dataset rows and 28 fresh
    external points near the data.
    """

    name = "batch-traffic"
    workers = 1
    n, d, n_outliers = 8000, 12, 16
    batch, repolls, planted_repolls, rows = 64, 10, 7, 26
    #: Traced steps whose layer totals form the per-layer metrics.
    trace_steps = 16
    #: Every how many steps answers are sampled for the oracle, how many
    #: per sampled step, and the cap on sampled answers per run.
    sample_every, sample_per_step, sample_cap = 4, 2, 24
    #: Sampled targets also checked against exhaustive search.
    exhaustive = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        data = make_planted_outliers(
            n=self.n, d=self.d, n_outliers=self.n_outliers, subspace_dims=(2, 3), seed=seed
        )
        self.X = data.X
        rng = np.random.default_rng([seed, 1])
        planted = [int(row) for row in data.outlier_rows]
        inliers = np.arange(self.n_outliers, self.n)
        hot_rows = [int(row) for row in rng.choice(inliers, 4, replace=False)]
        self.hot = planted + hot_rows + _points_near(rng, self.X, rng.integers(self.n, size=4))
        self.cheap_row = hot_rows[0]
        self._traffic = np.random.default_rng([seed, 2])
        self._pick = np.random.default_rng([seed, 3])
        self.miner: HOSMiner | None = None
        self.samples: list[tuple[int, object, object]] = []

    def params(self) -> dict:
        return {
            "n": self.n, "d": self.d, "planted_outliers": self.n_outliers,
            "batch": self.batch, "repolls": self.repolls, "rows": self.rows,
            "fresh_points": self.batch - self.repolls - self.rows,
            "workers": self.workers, "shard": "rows", "kernel": "auto", "precision": "auto",
        }

    def setup(self) -> None:
        self.close()
        self.miner = HOSMiner(workers=self.workers, shard="rows", kernel="auto", precision="auto")
        self.miner.fit(self.X)
        if self.workers > 1:
            # The shard pool spawns lazily on the first batch; a user pays
            # that before the first answer, so it belongs to set-up.
            self.miner.query_batch([self.cheap_row])

    def warm(self) -> None:
        self.miner.query_batch(self.hot)

    def prelude(self) -> "Step | None":
        return None

    def exhausted(self, i: int) -> bool:
        return False

    def next_targets(self) -> list:
        rng = self._traffic
        # Re-polls of planted outliers replay thousands of cached subspace
        # decisions each, so their count per batch is fixed rather than
        # drawn: it would otherwise set most of the batch-to-batch spread.
        planted = rng.integers(self.n_outliers, size=self.planted_repolls)
        others = rng.integers(self.n_outliers, len(self.hot), size=self.repolls - len(planted))
        repolls = [self.hot[i] for i in np.concatenate([planted, others])]
        rows = [int(row) for row in rng.integers(self.n, size=self.rows)]
        fresh = _points_near(
            rng, self.X, rng.integers(self.n, size=self.batch - self.repolls - self.rows)
        )
        targets = repolls + rows + fresh
        order = rng.permutation(len(targets))
        return [targets[i] for i in order]

    def step(self, i: int) -> Step:
        targets = self.next_targets()
        start = clock()
        result = self.miner.query_batch(targets)
        seconds = clock() - start
        self._sample(i, targets, result.results)
        return Step(
            seconds, len(targets), 1, {"batch": seconds}, [result.stats],
            result.knn_evaluations, result.shared_cache_hits,
        )

    def _sample(self, i: int, targets: list, results: list) -> None:
        if i % self.sample_every or len(self.samples) >= self.sample_cap:
            return
        for j in self._pick.choice(len(targets), self.sample_per_step, replace=False):
            self.samples.append((i, targets[j], results[j]))

    def check(self) -> list[tuple[int, str]]:
        """``(step, reason)`` for every sampled answer the oracle rejects."""
        if not self.samples:
            return []
        exact = oracle.exact_miner(self.miner, self.X)
        rtol = oracle.od_tolerance(self.miner)
        want = exact.query_batch([target for _, target, _ in self.samples], workers=1)
        failures = []
        for (i, _, got), expected in zip(self.samples, want.results):
            reason = oracle.compare(oracle.answer_of(got), oracle.answer_of(expected), rtol)
            if reason:
                failures.append((i, "exact miner: " + reason))
        # The definition itself, on the most outlying sampled targets.
        ranked = sorted(self.samples, key=lambda s: -s[2].total_outlying)
        for i, target, got in ranked[: self.exhaustive]:
            want_one = oracle.exhaustive_answer(exact, target)
            reason = oracle.compare(oracle.answer_of(got), want_one, rtol)
            if reason:
                failures.append((i, "exhaustive search: " + reason))
        exact.close()
        return failures

    def close(self) -> None:
        if self.miner is not None:
            self.miner.close()


class BatchSharded(BatchTraffic):
    """batch-traffic's exact inputs through the persistent row-shard pool.

    Runnable by name, but not one of ``BENCHMARK.json``'s workloads: with
    two workers and a coordinator on two cores it was the least steady
    workload (ten-seed ``p50_ms`` spread 0.18-0.26 of the median against
    the 0.25 ceiling on a bound). It stays for tracing ``core.shard``.
    """

    name = "batch-sharded"
    workers = 2
    trace_steps = 8


# ----------------------------------------------------------------------
# mine
# ----------------------------------------------------------------------
class Mine(BatchTraffic):
    """Whole-dataset mining, then sequential single-point queries.

    Same data as batch-traffic. After set-up, one ``detect_outliers()``
    pass (fixed order: always the first call after the set-up fits),
    then a closed loop of sequential ``query_row``/``query_point`` calls
    in blocks of 8 shuffled targets: 4 planted-outlier rows, 2 external
    points next to planted outliers and 2 random dataset rows. Outlying
    searches take tens of ms and inlier ones under 1 ms, so the 3:1 mix
    keeps both p50 and p90 inside the outlying mode.
    """

    name = "mine"
    trace_steps = 48
    sample_every, sample_per_step, sample_cap = 8, 1, 16
    #: Flagged detect results re-checked against the exact oracle, and
    #: random rows added to the brute-force screen check.
    detect_checks, screen_rows = 4, 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._queue: list = []
        self.flagged: list[tuple[int, object]] = []

    def params(self) -> dict:
        return {
            "n": self.n, "d": self.d, "planted_outliers": self.n_outliers,
            "block": "4 planted rows, 2 points near planted rows, 2 random rows",
            "workers": 1, "kernel": "auto", "precision": "auto",
        }

    def warm(self) -> None:
        pass

    def prelude(self) -> Step:
        start = clock()
        self.flagged = self.miner.detect_outliers()
        seconds = clock() - start
        return Step(seconds, len(self.flagged), 1, {"detect": seconds},
                    [result.stats for _, result in self.flagged])

    def next_target(self):
        if not self._queue:
            rng = self._traffic
            planted = rng.integers(self.n_outliers, size=6)
            block = [int(row) for row in planted[:4]]
            block += _points_near(rng, self.X, planted[4:])
            block += [int(row) for row in rng.integers(self.n_outliers, self.n, size=2)]
            self._queue = [block[j] for j in rng.permutation(len(block))]
        return self._queue.pop()

    def step(self, i: int) -> Step:
        target = self.next_target()
        start = clock()
        if isinstance(target, int):
            result = self.miner.query_row(target)
        else:
            result = self.miner.query_point(target)
        seconds = clock() - start
        if i % self.sample_every == 0 and len(self.samples) < self.sample_cap:
            self.samples.append((i, target, result))
        return Step(seconds, 1, 1, {"query": seconds}, [result.stats])

    def check(self) -> list[tuple[int, str]]:
        failures = super().check()
        # detect_outliers: the flagged set against a brute-force full-space
        # screen, and a few flagged answers against the exact oracle.
        flagged = {row for row, _ in self.flagged}
        rows = np.union1d(
            np.fromiter(flagged, dtype=np.intp, count=len(flagged)),
            self._pick.choice(self.n, self.screen_rows, replace=False),
        )
        bad = oracle.screen_mismatches(
            self.X, self.miner.config.k, self.miner.threshold_, flagged, rows
        )
        if bad:
            failures.append((-1, f"detect_outliers screen disagrees on rows {bad[:5]}"))
        if self.flagged:
            exact = oracle.exact_miner(self.miner, self.X)
            rtol = oracle.od_tolerance(self.miner)
            picks = self._pick.choice(len(self.flagged), min(self.detect_checks, len(self.flagged)),
                                      replace=False)
            for j in picks:
                row, got = self.flagged[j]
                reason = oracle.compare(
                    oracle.answer_of(got), oracle.answer_of(exact.query_row(row)), rtol
                )
                if reason:
                    failures.append((-1, f"detect_outliers row {row}: {reason}"))
            exact.close()
        return failures


# ----------------------------------------------------------------------
# stream-window
# ----------------------------------------------------------------------
class StreamWindow:
    """A sliding window with writes beside reads.

    A ``StreamEngine`` with a 6400-row window over a d=8 drift stream
    (``make_drift_stream``). Each step pushes 32 fresh rows (insert +
    expire) and then runs one ``query_batch`` over the fresh rows plus a
    fixed 48-point watchlist. The miner calibrates ``T`` once at fit
    (quantile 0.95); streaming keeps it fixed.

    The drift is 0.002 cluster standard deviations per push, 25x slower
    than the E17 gate's 0.05. At 0.05 the mixture walks away from the
    fixed watchlist within about 100 pushes, every poll becomes a cold
    outlier search, and a step's cost keeps growing through the run, so
    a faster build would end up measuring a costlier state. At 0.002 the
    cost of a step stays flat over 400+ pushes.
    """

    name = "stream-window"
    window, d, push_rows, watch, drift = 6400, 8, 32, 48, 0.002
    #: Stream batches generated beyond the warm window (the loop stops
    #: early if a run ever exhausts them).
    future_batches = 1500
    trace_steps = 64
    #: Every how many steps the whole poll is sampled, and the cap.
    sample_every, sample_cap = 50, 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        prefix = self.window // self.push_rows
        stream = make_drift_stream(
            prefix + self.future_batches, self.push_rows, self.d,
            drift_per_batch=self.drift, seed=seed,
        )
        self.warm_rows = np.vstack(stream[:prefix])
        self.batches = stream[prefix:]
        rng = np.random.default_rng([seed, 1])
        picks = rng.choice(self.window, self.watch, replace=False)
        self.watchlist = _points_near(rng, self.warm_rows, picks)
        self.miner: HOSMiner | None = None
        self.engine: StreamEngine | None = None
        self.samples: list[tuple[int, np.ndarray, list, object]] = []

    def params(self) -> dict:
        return {
            "window": self.window, "d": self.d, "push_rows": self.push_rows,
            "watchlist": self.watch, "drift_per_batch": self.drift, "threshold_quantile": 0.95,
            "workers": 1, "kernel": "auto", "precision": "auto",
        }

    def _config(self, **overrides) -> dict:
        return dict(k=5, sample_size=10, workers=1, kernel="auto", precision="auto", **overrides)

    def setup(self) -> None:
        self.close()
        self.miner = HOSMiner(**self._config(threshold_quantile=0.95, stream_window=self.window))
        self.miner.fit(self.warm_rows)
        self.engine = StreamEngine(self.miner)

    def warm(self) -> None:
        self.engine.query_batch(self.watchlist)

    def prelude(self) -> "Step | None":
        return None

    def exhausted(self, i: int) -> bool:
        return i >= len(self.batches)

    def step(self, i: int) -> Step:
        rows = self.batches[i]
        start = clock()
        self.engine.push(rows)
        pushed = clock()
        occupancy = self.engine.occupancy
        targets = list(range(occupancy - rows.shape[0], occupancy)) + self.watchlist
        result = self.engine.query_batch(targets)
        end = clock()
        if i % self.sample_every == 0 and len(self.samples) < self.sample_cap:
            window = np.array(self.miner.backend_.data, copy=True)
            self.samples.append((i, window, targets, result))
        return Step(
            end - start, len(targets), 2, {"push": pushed - start, "batch": end - pushed},
            [result.stats], result.knn_evaluations, result.shared_cache_hits,
        )

    def check(self) -> list[tuple[int, str]]:
        """Each sampled poll against a fresh fit on the same window."""
        failures = []
        for i, window, targets, got in self.samples:
            fresh = HOSMiner(**self._config(threshold=self.miner.threshold_)).fit(window)
            want = fresh.query_batch(targets)
            for j, (a, b) in enumerate(zip(got.results, want.results)):
                reason = oracle.compare(oracle.answer_of(a), oracle.answer_of(b))
                if reason:
                    failures.append((i, f"fresh fit, target {j}: {reason}"))
                    break
            fresh.close()
        return failures

    def close(self) -> None:
        if self.miner is not None:
            self.miner.close()


WORKLOADS = {w.name: w for w in (BatchTraffic, Mine, StreamWindow, BatchSharded)}
