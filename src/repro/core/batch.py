"""Batched multi-query engine: many lattice searches, shared kNN work.

The paper's system answers one query point at a time; a traffic-serving
deployment receives *streams* of query points against one fitted model.
:class:`BatchQueryEngine` drives many
:class:`~repro.core.search.DynamicSubspaceSearch` runs concurrently in
lock-step rounds:

1. every still-active search announces (via its
   :meth:`~repro.core.search.DynamicSubspaceSearch.run_stepped`
   coroutine) the subspace masks it needs OD values for next;
2. requests already answered by the per-fit
   :class:`~repro.core.od.SharedODCache` are replayed for free —
   fit-time calibration and learning populate that cache, so querying a
   row the learning pass already searched costs zero new kNN work;
3. identical query points are coalesced (the first computes, the rest
   replay through the cache), and the remaining misses are grouped by
   mask signature: searches that request the *same* subspace list this
   round — the common case, since concurrent searches walk the lattice
   in lock-step and expand the same levels — form one work unit
   ``(queries × masks) → k-prefixes``, served once and settled by
   :func:`repro.core.od.evaluate`, which re-verifies near-threshold GEMM
   values with the exact kernel before any pruning decision is made on
   them.

The work unit's executor is chosen once per call. In process it is
:func:`repro.core.od.knn_prefixes`: one prefix-kernel call per group,
stacking the group's queries into GEMMs under the kernel's memory
ceiling, with each search's component matrix built on its first miss
below the full space and dropped when it finishes (under
:data:`COMPONENT_BUDGET_BYTES`). The full-space group — in the first
round, usually every search of the batch — is settled exactly by one
Gram-screened unit for all its queries and needs no component matrix
(:func:`repro.core.od.evaluate`). With ``workers > 1`` (default from
``HOSMinerConfig.workers`` / the ``HOSMINER_WORKERS`` environment
variable) it is the miner's persistent shard pool
(:mod:`repro.core.shard`), spawned once and reused across every
``query_batch`` call: each shard answers the work unit over its
shared-memory row slice and the coordinator merges the k-prefixes
exactly — OD additivity over data points makes the merged prefix
identical to a full scan's. Only masks and query rows cross the pipe,
so per-call shipped bytes are independent of ``n``; ``SearchStats``
gains ``shard_round_trips`` and ``bytes_shipped``.

Because ``run_stepped`` replays exactly the sequential decision process
and every supplied OD value is exactly what the sequential evaluator
would have computed, the per-point results are **identical** to
sequential ``query_point``/``query_row`` calls — element-wise, including
tie order — at any worker count (property-tested in
``tests/test_batch.py`` and ``tests/test_shard.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Generator, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.od import (
    ODEvaluator,
    SharedODCache,
    component_entry,
    evaluate,
    knn_prefixes,
)
from repro.core.precision import reverify_rtol
from repro.core.result import BatchResult, OutlyingSubspaceResult
from repro.core.search import SearchOutcome, SearchStats
from repro.core.subspace import dims_of_mask, full_mask
from repro.index.base import require_finite, validate_query_matrix

if TYPE_CHECKING:
    from repro.core.miner import HOSMiner
    from repro.core.shard import ShardPool

__all__ = ["BatchQueryEngine"]


@dataclass(slots=True)
class _SearchState:
    """Bookkeeping of one in-flight search inside the round loop."""

    gen: Generator[list[int], "dict[int, float]", SearchOutcome]
    evaluator: ODEvaluator
    #: Shared-cache point key; equal keys mean identical searches.
    key: tuple[str, object]
    pending: list[int] = field(default_factory=list)
    values: dict[int, float] = field(default_factory=dict)
    outcome: SearchOutcome | None = None
    #: Component entry (:func:`repro.core.od.component_entry`), built on
    #: the search's first miss and dropped when it finishes.
    entry: "tuple | None" = None
    entry_built: bool = False


#: Ceiling on the memory held in per-search component matrices at any
#: moment. Components are only profitable for searches that evaluate
#: many subspaces, and those are exactly the searches that survive the
#: first rounds — typically a small fraction of the batch — so this
#: budget is rarely binding; when it is, the work unit builds a
#: transient matrix per request instead.
COMPONENT_BUDGET_BYTES = 256 * 2**20


class _ComponentBudget:
    """Per-search component entries under a byte budget (0 disables)."""

    def __init__(self, backend, precision: str, budget: int) -> None:
        self.backend = backend
        self.precision = precision
        self.budget = budget
        # Float64 components cost 8 bytes/element; the float32 tier
        # keeps a transposed float32 copy alongside (4 more).
        self.per_search = backend.size * backend.d * (12 if precision == "float32" else 8)
        self.held = 0

    def entry(self, state: _SearchState) -> "tuple | None":
        if not state.entry_built and self.held + self.per_search <= self.budget:
            state.entry_built = True
            state.entry = component_entry(self.backend, state.evaluator.query, self.precision)
            if state.entry is not None:
                self.held += self.per_search
        return state.entry

    def release(self, state: _SearchState) -> None:
        if state.entry is not None:
            self.held -= self.per_search
            state.entry = None


def _scatter_executor(pool: "ShardPool", backend):
    """The shard pool as a work-unit executor.

    Charges the coordinator backend's logical counters exactly as the
    in-process kernels would have, so cost accounting does not depend
    on the executor.
    """
    stats = backend.stats
    flops_per_cell = 2 * backend.size * backend.d

    def execute(queries, dims_list, k, excludes, kernel, precision, entries=None):
        prefixes = pool.scatter_prefixes(queries, dims_list, k, excludes, kernel, precision)
        cells = queries.shape[0] * len(dims_list)
        stats.knn_queries += cells
        if kernel == "gemm":
            stats.bump("gemm_flops", flops_per_cell * cells)
            stats.bump("gemm_masks", cells)
        return prefixes

    return execute


def _pool_counters(pool: "ShardPool") -> tuple[int, ...]:
    return (
        pool.round_trips,
        pool.bytes_shipped,
        pool.respawns,
        pool.retries,
        pool.timeouts,
        pool.degraded_rounds,
    )


class BatchQueryEngine:
    """Drive many subspace searches against one fitted miner.

    Parameters
    ----------
    miner:
        A fitted :class:`~repro.core.miner.HOSMiner`.
    workers:
        Worker processes; ``None`` (default) reads the miner's
        ``config.workers``. 1 runs in-process; above 1 every work unit
        is scattered over the miner's persistent shared-memory shard
        pool.
    """

    def __init__(self, miner: "HOSMiner", workers: "int | None" = None) -> None:
        if workers is None:
            workers = miner.config.workers
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.miner = miner
        self.workers = workers

    # ------------------------------------------------------------------
    def run(self, targets) -> BatchResult:
        """Answer every target; see :meth:`HOSMiner.query_batch`."""
        start = time.perf_counter()
        queries, excludes = self._normalize_targets(targets)
        pool: "ShardPool | None" = None
        if self.workers > 1 and queries.shape[0] > 0:
            # Single-query batches ride the warm pool too — the whole
            # point of a persistent engine is that small batches no
            # longer pay a spin-up, so there is nothing to dodge.
            pool = self.miner._ensure_shard_pool(self.workers)
            before = _pool_counters(pool)
        results, knn_evaluations, shared_hits = self._search(queries, excludes, pool)
        stats = self._aggregate_stats(results)
        if pool is not None:
            (
                stats.shard_round_trips,
                stats.bytes_shipped,
                stats.worker_respawns,
                stats.retries,
                stats.timeouts,
                stats.degraded_rounds,
            ) = (after - was for after, was in zip(_pool_counters(pool), before))
        wall_time = time.perf_counter() - start
        stats.wall_time_s = wall_time
        return BatchResult(
            results=results,
            stats=stats,
            knn_evaluations=knn_evaluations,
            shared_cache_hits=shared_hits,
            wall_time_s=wall_time,
            workers=1 if pool is None else pool.workers,
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
                row = int(target)
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
    def _search(
        self,
        queries: np.ndarray,
        excludes: "list[int | None]",
        pool: "ShardPool | None",
    ) -> tuple[list[OutlyingSubspaceResult], int, int]:
        miner = self.miner
        backend = miner.backend_
        k = miner.config.k
        kernel = miner.kernel_
        precision = miner.precision_
        threshold = miner.threshold_
        # One band for every search of the batch: same backend, same
        # resolved tier => same rigorous re-verification width.
        rtol = reverify_rtol(precision, backend.d)

        states: list[_SearchState] = []
        for query, exclude in zip(queries, excludes):
            evaluator = ODEvaluator(
                backend,
                query,
                k,
                exclude=exclude,
                shared_cache=miner.od_cache_,
                kernel=kernel,
                precision=precision,
            )
            states.append(
                _SearchState(
                    gen=miner._make_search(evaluator).run_stepped(),
                    evaluator=evaluator,
                    key=SharedODCache.point_key(evaluator.query, exclude),
                )
            )

        # The executor, once per call. Shard workers keep their own
        # component caches, so the coordinator builds none.
        if pool is None:
            execute = partial(knn_prefixes, backend)
            budget = _ComponentBudget(backend, precision, COMPONENT_BUDGET_BYTES)
        else:
            execute = _scatter_executor(pool, backend)
            budget = _ComponentBudget(backend, precision, 0)
        dims_cache: dict[int, np.ndarray] = {}
        full = [full_mask(backend.d)]

        def serve(members: "list[int]", masks: "list[int]") -> None:
            """One work unit for a group, settled and primed."""
            dims_list = []
            for mask in masks:
                dims = dims_cache.get(mask)
                if dims is None:
                    dims = dims_cache[mask] = np.asarray(dims_of_mask(mask), dtype=np.intp)
                dims_list.append(dims)
            # The full space settles exactly without component entries.
            entries = None if masks == full else [budget.entry(states[i]) for i in members]
            values, bounds, reverified = evaluate(
                execute,
                queries[members],
                dims_list,
                k,
                [excludes[i] for i in members],
                kernel,
                precision,
                threshold,
                rtol,
                entries=entries,
                stats=backend.stats,
            )
            for row, i in enumerate(members):
                state = states[i]
                evaluator = state.evaluator
                evaluator.reverifications += int(reverified[row])
                for mask, value, bound in zip(
                    masks, values[row].tolist(), bounds[row].tolist()
                ):
                    evaluator.prime(mask, value, kth=bound)
                    state.values[mask] = value

        for state in states:
            # d >= 1 guarantees the first step always requests something.
            state.pending = next(state.gen)
        active = list(range(len(states)))
        while active:
            # One pass: split cache hits from misses, coalesce identical
            # points (the first computes, the rest replay through the
            # shared cache) and group the misses by mask signature.
            groups: dict[tuple[int, ...], list[int]] = {}
            duplicates: list[int] = []
            seen: set[tuple[str, object]] = set()
            for i in active:
                state = states[i]
                cached_od = state.evaluator.cached_od
                values = state.values = {}
                misses = []
                for mask in state.pending:
                    value = cached_od(mask)
                    if value is None:
                        misses.append(mask)
                    else:
                        values[mask] = value
                if not misses:
                    continue
                if state.key in seen:
                    duplicates.append(i)
                    continue
                seen.add(state.key)
                groups.setdefault(tuple(misses), []).append(i)
            for signature, members in groups.items():
                serve(members, list(signature))
            for i in duplicates:
                state = states[i]
                leftovers = []
                for mask in state.pending:
                    if mask not in state.values:
                        value = state.evaluator.cached_od(mask)
                        if value is None:
                            leftovers.append(mask)
                        else:
                            state.values[mask] = value
                if leftovers:
                    # Defensive: a duplicate whose trajectory diverged
                    # (should not happen) computes its own.
                    serve([i], leftovers)

            still_active: list[int] = []
            for i in active:
                state = states[i]
                try:
                    state.pending = state.gen.send(state.values)
                    still_active.append(i)
                except StopIteration as stop:
                    state.outcome = stop.value
                    budget.release(state)
            active = still_active

        results = [
            miner._build_result(state.outcome, state.evaluator) for state in states
        ]
        knn_evaluations = sum(state.evaluator.evaluations for state in states)
        shared_hits = sum(state.evaluator.shared_hits for state in states)
        return results, knn_evaluations, shared_hits

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
