"""Batched multi-query engine: many lattice searches, shared kNN work.

The paper's system answers one query point at a time; a traffic-serving
deployment receives *streams* of query points against one fitted model.
:class:`BatchQueryEngine` resolves a batch of targets into one
:class:`~repro.core.search.DynamicSubspaceSearch` each and hands them to
the search driver, :func:`repro.core.search.run_searches`, which runs
them in lock-step rounds: cache replays through the per-fit
:class:`~repro.core.od.SharedODCache` (fit-time calibration and learning
populate it, so querying a row the learning pass already searched costs
zero new kNN work), identical points coalesced, and the misses grouped
by mask signature into one work unit ``(queries × masks) → k-prefixes``
each, settled by :func:`repro.core.od.settle`.

A target whose cache slot holds the outcome of its last ``query_batch``
search, found under the miner's current search settings, is answered
from it without a search (:class:`~repro.core.od.StoredOutcome`): a
search is a pure function of its point, its settings and the OD values
it reads, and the cache drops a slot's outcome with any of its entries.
A replay reports what a fully cached search reports — the same
``SearchStats`` but ``wall_time_s``, nothing re-verified, every OD value
a shared-cache hit. :meth:`BatchQueryEngine.run` is the one place that
reads and stores outcomes; the call ends by trimming the cache to its
byte budget (:meth:`~repro.core.od.SharedODCache.trim`).

The engine chooses the work unit's executor once per call. In process
it is :func:`repro.core.od.knn_prefixes`; with ``workers > 1`` (default
from ``HOSMinerConfig.workers`` / the ``HOSMINER_WORKERS`` environment
variable) it is the miner's persistent shard pool
(:mod:`repro.core.shard`), built once and reused across every
``query_batch`` call: each shard answers the work unit over its row
slice on its own thread and the k-prefixes are merged exactly — OD
additivity over data points makes the merged prefix identical to a
full scan's. Either way the searches' component matrices are held
under :data:`~repro.core.search.COMPONENT_BUDGET_BYTES`, and a shard
reads its rows of them; ``SearchStats`` gains ``shard_round_trips``.

Every search sees exactly the OD values and decisions it would see
alone, so per-point results are element-wise identical to sequential
``query_point``/``query_row`` calls — which are batches of one through
the same driver — at any worker count, and equal to an exact-kernel fit
and to exhaustive search (property-tested in ``tests/test_batch.py`` and
``tests/test_shard.py``).
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.config import require_integer
from repro.core.exceptions import ConfigurationError
from repro.core.od import ODEvaluator, StoredOutcome, knn_prefixes
from repro.core.result import BatchResult, OutlyingSubspaceResult
from repro.core.search import SearchStats, run_searches
from repro.index.base import require_finite, validate_query_matrix

if TYPE_CHECKING:
    from repro.core.miner import HOSMiner
    from repro.core.shard import ShardPool

__all__ = ["BatchQueryEngine"]


def _scatter_executor(pool: "ShardPool", backend):
    """The shard pool as a work-unit executor.

    Charges the coordinator backend's logical counters exactly as the
    in-process kernels would have, so cost accounting does not depend
    on the executor.
    """
    stats = backend.stats
    flops_per_cell = 2 * backend.size * backend.d

    def execute(queries, masks, k, excludes, kernel, precision, entries=None):
        prefixes = pool.scatter_prefixes(
            queries, masks, k, excludes, kernel, precision, entries
        )
        cells = queries.shape[0] * len(masks)
        stats.knn_queries += cells
        if kernel == "gemm":
            stats.bump("gemm_flops", flops_per_cell * cells)
            stats.bump("gemm_masks", cells)
        return prefixes

    return execute


def _stored_outcome(settings: tuple, result: OutlyingSubspaceResult) -> StoredOutcome:
    """What the cache keeps of a finished search: plain numbers only."""
    stats = result.stats
    return StoredOutcome(
        settings,
        tuple(subspace.mask for subspace in result.minimal),
        tuple(result.od_values.values()),
        result.total_outlying,
        stats.od_evaluations,
        stats.upward_pruned,
        stats.downward_pruned,
        tuple(stats.level_schedule),
        tuple(stats.evaluations_by_level.items()),
    )


def _replay(
    miner: "HOSMiner", evaluator: ODEvaluator, outcome: StoredOutcome
) -> OutlyingSubspaceResult:
    """A fresh result from a stored outcome, reported as the fully cached
    search it stands for: every OD value a shared-cache hit, nothing
    evaluated or re-verified."""
    start = time.perf_counter()
    evaluator.shared_hits += outcome.od_evaluations
    stats = SearchStats(
        od_evaluations=outcome.od_evaluations,
        upward_pruned=outcome.upward_pruned,
        downward_pruned=outcome.downward_pruned,
        level_schedule=list(outcome.level_schedule),
        evaluations_by_level=dict(outcome.evaluations_by_level),
    )
    result = miner._result(
        evaluator.query,
        outcome.minimal,
        outcome.od_values,
        outcome.total_outlying,
        stats,
    )
    stats.wall_time_s = time.perf_counter() - start
    return result


class BatchQueryEngine:
    """Drive many subspace searches against one fitted miner.

    Parameters
    ----------
    miner:
        A fitted :class:`~repro.core.miner.HOSMiner`.
    workers:
        Row shards, one thread each; ``None`` (default) reads the
        miner's ``config.workers``. 1 runs in-process; above 1 every
        work unit is scattered over the miner's persistent shard pool.
    """

    def __init__(self, miner: "HOSMiner", workers: "int | None" = None) -> None:
        workers = require_integer(
            "workers", miner.config.workers if workers is None else workers
        )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.miner = miner
        self.workers = workers

    # ------------------------------------------------------------------
    def run(self, targets) -> BatchResult:
        """Answer every target; see :meth:`HOSMiner.query_batch`."""
        start = time.perf_counter()
        queries, excludes = self._normalize_targets(targets)
        miner = self.miner
        backend = miner.backend_
        pool: "ShardPool | None" = None
        execute = partial(knn_prefixes, backend)
        if self.workers > 1 and queries.shape[0] > 0:
            # Single-query batches ride the warm pool too: a persistent
            # pool costs a small batch nothing to reach.
            pool = miner._ensure_shard_pool(self.workers)
            round_trips = pool.round_trips
            execute = _scatter_executor(pool, backend)
        cache = miner.od_cache_
        evaluators = [
            ODEvaluator(
                backend,
                query,
                miner.config.k,
                exclude=exclude,
                shared_cache=cache,
                kernel=miner.kernel_,
                precision=miner.precision_,
            )
            for query, exclude in zip(queries, excludes)
        ]
        # Every target's slot is looked up before any search runs, so a
        # target repeated inside this batch is searched (and coalesced)
        # as it would be without stored outcomes.
        settings = miner._search_settings()
        stored = [cache.outcome(evaluator.point_key, settings) for evaluator in evaluators]
        searched = [i for i, outcome in enumerate(stored) if outcome is None]
        outcomes = iter(
            run_searches([miner._make_search(evaluators[i]) for i in searched], execute)
        )
        results = []
        for evaluator, outcome in zip(evaluators, stored):
            if outcome is None:
                result = miner._build_result(next(outcomes), evaluator)
                cache.keep_outcome(evaluator.point_key, _stored_outcome(settings, result))
            else:
                result = _replay(miner, evaluator, outcome)
            results.append(result)
        stats = self._aggregate_stats(results)
        if pool is not None:
            stats.shard_round_trips = pool.round_trips - round_trips
        # The call's last read of the cache is behind it.
        cache.trim()
        wall_time = time.perf_counter() - start
        stats.wall_time_s = wall_time
        return BatchResult(
            results=results,
            stats=stats,
            knn_evaluations=sum(evaluator.evaluations for evaluator in evaluators),
            shared_cache_hits=sum(evaluator.shared_hits for evaluator in evaluators),
            wall_time_s=wall_time,
            workers=1 if pool is None else pool.workers,
            replayed=len(evaluators) - len(searched),
        )

    # ------------------------------------------------------------------
    def _normalize_targets(self, targets) -> tuple[np.ndarray, "list[int | None]"]:
        """Resolve a heterogeneous target spec into ``(queries, excludes)``.

        Accepted forms: a 2-D ``(m, d)`` matrix of external points, a
        1-D integer array / sequence of dataset row ids, a single 1-D
        float vector (one external point), or a mixed sequence of row
        ids and vectors. Validation happens here, once, up front —
        malformed targets raise
        :class:`~repro.core.exceptions.DataShapeError` (shapes or
        non-finite coordinates) or
        :class:`~repro.core.exceptions.ConfigurationError` (row range)
        before any search starts.
        """
        miner = self.miner
        X = miner.backend_.data
        d = miner.d_

        if isinstance(targets, np.ndarray):
            if targets.ndim == 1 and np.issubdtype(targets.dtype, np.integer):
                targets = [int(row) for row in targets]
            elif targets.ndim == 1:
                targets = [targets]
            else:
                matrix = validate_query_matrix(targets, d)
                require_finite(matrix, "target")
                return matrix, [None] * matrix.shape[0]

        rows: list[np.ndarray] = []
        excludes: list[int | None] = []
        for target in targets:
            if isinstance(target, (int, np.integer)):
                row = require_integer("row", target)
                if not 0 <= row < X.shape[0]:
                    raise ConfigurationError(
                        f"row {row} out of range for n={X.shape[0]}"
                    )
                rows.append(X[row])
                excludes.append(row)
            else:
                rows.append(ODEvaluator._validate_query(target, d))
                excludes.append(None)
        if not rows:
            return np.empty((0, d), dtype=np.float64), []
        queries = np.ascontiguousarray(np.vstack(rows))
        require_finite(queries, "target")
        return queries, excludes

    # ------------------------------------------------------------------
    @staticmethod
    def _aggregate_stats(results: Sequence[OutlyingSubspaceResult]) -> SearchStats:
        """Sum the numeric cost fields over all per-point searches."""
        total = SearchStats()
        for result in results:
            total.od_evaluations += result.stats.od_evaluations
            total.upward_pruned += result.stats.upward_pruned
            total.downward_pruned += result.stats.downward_pruned
            total.reverified += result.stats.reverified
            for level, count in result.stats.evaluations_by_level.items():
                total.evaluations_by_level[level] = (
                    total.evaluations_by_level.get(level, 0) + count
                )
        return total
