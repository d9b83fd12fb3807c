"""End-to-end performance specs: E12 (batch engine), E13 (OD kernel),
E14 (memory ceiling), E15 (row shards on threads) and E17 (incremental
streaming engine vs refit-from-scratch).

Unlike the paper-table experiments in :mod:`repro.bench.experiments`,
these specs track the repo's own performance trajectory: their
smoke-tier snapshots are committed at the repo root as
``BENCH_e12.json`` … ``BENCH_e15.json`` and ``BENCH_e17.json``, and CI
re-runs them on every push, failing when a gated measure regresses by
more than 15% (:func:`repro.bench.snapshot.compare_snapshots`).

Only *machine-relative* ratios and deterministic counters are gated
— E12's ``speedup`` (batched vs sequential wall time), E13's
``speedup``/``fused_speedup``/``f32_speedup`` (GEMM vs exact kernel;
float32 vs float64 GEMM), E14's ``peak_blocked_mb``/
``peak_blocked_batch_mb`` (the blocked kernel's intermediate footprint
for one and for four queries, exact bytes), E15's ``thread_speedup``
(a cold n=32000 batch at one worker vs two) plus its deterministic
``round_trips`` counter, and E17's ``stream_speedup``/``identity``
(sustained incremental insert+query vs fresh-fit-per-batch wall time,
with every streamed answer asserted identical to the fresh-fit oracle)
— because a committed baseline travels across heterogeneous runners
where absolute queries/sec mean nothing. The absolute throughput and
latency columns are recorded in every snapshot for the trajectory, but
never gate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.spec import ExperimentSpec
from repro.bench.workloads import (
    E13_SEED,
    E14_SEED,
    E17_SEED,
    make_level_masks,
    make_traffic,
    planted_workload,
    standard_miner,
)
from repro.core.miner import HOSMiner
from repro.core.stream import StreamEngine
from repro.data.synthetic import make_drift_stream
from repro.index.base import components32_from
from repro.index.linear import LinearScanIndex

__all__ = [
    "E12_SPEC",
    "E13_SPEC",
    "E14_SPEC",
    "E15_SPEC",
    "E17_SPEC",
    "PERF_SPECS",
    "run_batch_cell",
    "run_kernel_cell",
    "run_memory_cell",
    "run_shard_cell",
    "run_stream_cell",
    "run_thread_cell",
]


# ----------------------------------------------------------------------
# E12 — batched multi-query throughput versus the sequential loop
# ----------------------------------------------------------------------
def run_batch_cell(n: int, d: int, m: int, workers: int = 2) -> dict:
    """Time sequential vs batched vs row-sharded on one workload.

    ``threshold_quantile=0.9`` keeps a meaningful share of the batch in
    the eval-heavy regime (searches that actually walk the lattice) —
    with an ultra-tight threshold nearly every query resolves in one
    full-space evaluation and every implementation is bound by the same
    per-query bookkeeping.
    """
    workload = planted_workload(n=n, d=d, seed_offset=12)
    miner = standard_miner(workload, threshold_quantile=0.9)
    targets = make_traffic(workload, m)

    start = time.perf_counter()
    sequential = [miner.query(target) for target in targets]
    sequential_s = time.perf_counter() - start

    batch = miner.query_batch(targets)

    # A fresh fit for the workers run so its cache starts equally warm.
    miner_mp = standard_miner(workload, threshold_quantile=0.9)
    start = time.perf_counter()
    miner_mp.query_batch(targets, workers=workers)
    workers_s = time.perf_counter() - start

    assert all(
        a.minimal == b.minimal and a.total_outlying == b.total_outlying
        for a, b in zip(sequential, batch.results)
    ), "batched answers diverged from the sequential loop"

    return {
        "n": n,
        "d": d,
        "m": m,
        "seq_qps": m / sequential_s,
        "batch_qps": batch.queries_per_second,
        "speedup": sequential_s / batch.wall_time_s,
        "workers_qps": m / workers_s,
        "cache_hits": batch.shared_cache_hits,
        "knn_evals": batch.knn_evaluations,
        "_counters": miner.backend_.stats.snapshot(),
    }


def _e12_run(ctx, cell: tuple, workers: int) -> dict:
    n, d, m = cell
    return run_batch_cell(int(n), int(d), int(m), workers=int(workers))


E12_SPEC = ExperimentSpec(
    name="e12",
    title="Batched multi-query throughput (linear backend)",
    grid={"cell": ((1000, 10, 64), (2000, 10, 128), (5000, 12, 256))},
    smoke={"cell": ((1000, 10, 64),)},
    fixed={"workers": 2},
    run=_e12_run,
    columns=[
        "n",
        "d",
        "m",
        "seq_qps",
        "batch_qps",
        "speedup",
        "workers_qps",
        "cache_hits",
        "knn_evals",
    ],
    expectation=(
        "the batched engine answers element-wise identical results "
        "faster than the sequential loop by vectorising kNN kernels "
        "across concurrent searches and replaying shared OD values "
        "from the per-fit cache"
    ),
    notes=[
        "identical answers verified against the sequential loop for every row"
    ],
    # Gate on the median of 3 measured repeats: single-shot wall-time
    # ratios swing far past the 15% tolerance on a loaded machine.
    repeats=3,
    regression={"speedup": "higher"},
)


# ----------------------------------------------------------------------
# E13 — GEMM level-wide OD kernel versus the exact per-mask loop
# ----------------------------------------------------------------------
def _time_kernel(fn, reps: int) -> float:
    """Best-of-``reps`` wall time for one kernel invocation.

    Minimum, not mean: scheduler preemption and allocator stalls only ever
    *add* time, so the fastest rep is the closest estimate of the kernel's
    intrinsic cost — and the only one stable enough for a 15% CI gate on
    sub-millisecond cells (see docs/benchmarking.md).
    """
    fn()  # warm-up (BLAS thread pools, allocator)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_kernel_cell(n: int, d: int, width: int, k: int = 5, reps: int = 7) -> dict:
    """Time the exact and GEMM (both precision tiers) OD kernels, and a
    4-query GEMM call, on one (n, d, width) cell."""
    rng = np.random.default_rng(E13_SEED)
    X = rng.normal(size=(n, d))
    query = rng.normal(size=d)
    backend = LinearScanIndex(X)
    masks = make_level_masks(rng, d, width)
    components = backend.distance_components(query)
    # Pre-transposed float32 copy, amortised across searches in the real
    # pipeline (the ODEvaluator caches it per query) — so the timed loop
    # measures the kernel, not the one-off cast.
    components32 = components32_from(components)

    exact_s = _time_kernel(
        lambda: backend.knn_distance_prefix(
            query, k, masks, components=components, kernel="exact"
        ).sum(axis=1),
        reps,
    )
    gemm_s = _time_kernel(
        lambda: backend.knn_distance_prefix(
            query, k, masks, components=components, kernel="gemm"
        ).sum(axis=1),
        reps,
    )
    gemm32_s = _time_kernel(
        lambda: backend.knn_distance_prefix(
            query,
            k,
            masks,
            components=components,
            kernel="gemm",
            precision="float32",
            components32=components32,
        ).sum(axis=1),
        reps,
    )

    # The multi-query call: 4 queries through one knn_distance_prefix_batch
    # call (one float64 product per query), reported per query for
    # comparability with the single-query cells.
    queries = rng.normal(size=(4, d))
    components_list = [backend.distance_components(q) for q in queries]
    fused_s = (
        _time_kernel(
            lambda: backend.knn_distance_prefix_batch(
                queries, k, masks, components_list=components_list, kernel="gemm"
            ).sum(axis=2),
            reps,
        )
        / queries.shape[0]
    )

    exact = backend.knn_distance_prefix(
        query, k, masks, components=components, kernel="exact"
    ).sum(axis=1)
    gemm = backend.knn_distance_prefix(
        query, k, masks, components=components, kernel="gemm"
    ).sum(axis=1)
    gemm32 = backend.knn_distance_prefix(
        query,
        k,
        masks,
        components=components,
        kernel="gemm",
        precision="float32",
        components32=components32,
    ).sum(axis=1)
    max_rel_err = float(np.max(np.abs(gemm - exact) / np.maximum(np.abs(exact), 1e-300)))
    max_rel_err32 = float(
        np.max(np.abs(gemm32 - exact) / np.maximum(np.abs(exact), 1e-300))
    )

    return {
        "n": n,
        "d": d,
        "width": width,
        "k": k,
        "exact_ms": exact_s * 1e3,
        "gemm_ms": gemm_s * 1e3,
        "gemm32_ms": gemm32_s * 1e3,
        "fused_ms_per_query": fused_s * 1e3,
        "speedup": exact_s / gemm_s,
        "fused_speedup": exact_s / fused_s,
        "f32_speedup": gemm_s / gemm32_s,
        "max_rel_err": max_rel_err,
        "max_rel_err32": max_rel_err32,
        "_counters": backend.stats.snapshot(),
    }


def _e13_run(ctx, n: int, d: int, width: int, k: int, reps: int) -> dict:
    return run_kernel_cell(int(n), int(d), int(width), k=int(k), reps=int(reps))


E13_SPEC = ExperimentSpec(
    name="e13",
    title="Level-wide GEMM OD kernel vs exact per-mask loop (linear backend)",
    # reps is tier-dependent: the smoke tier feeds the CI regression gate
    # and uses cells large enough that the float32 tier's sgemm advantage
    # is well clear of the 15% gate (small cells are BLAS-dispatch bound
    # and show no dtype separation); the full tier keeps the published 7.
    grid={"n": (4000,), "d": (8, 12, 16, 20), "width": (16, 64, 256), "reps": (7,)},
    smoke={"n": (8000, 16000), "d": (16,), "width": (128,), "reps": (11,)},
    fixed={"k": 5},
    run=_e13_run,
    columns=[
        "n",
        "d",
        "width",
        "k",
        "exact_ms",
        "gemm_ms",
        "gemm32_ms",
        "fused_ms_per_query",
        "speedup",
        "fused_speedup",
        "f32_speedup",
        "max_rel_err",
        "max_rel_err32",
    ],
    expectation=(
        "one M @ C.T BLAS product answers a whole level of masks; the "
        "GEMM kernel beats the exact gather loop on every cell, the "
        "float32 tier beats the float64 GEMM by >=1.3x on every smoke "
        "cell, and a 4-query call (one product per query) keeps the "
        "GEMM kernel's per-query cost"
    ),
    notes=[
        "GEMM values agree with the exact kernel within rtol 1e-9 on every "
        "cell; pruning decisions are re-verified exactly by the search layer",
        "float32 values stay within the rigorous rounding bound of "
        "repro.core.precision.reverify_rtol; answer sets are bit-identical "
        "to float64 because the search layer re-verifies the bound band",
    ],
    # The sub-millisecond cells need noise control beyond run_kernel_cell's
    # internal reps: one unmeasured warm-up pass, then the median of 5.
    warmup=1,
    repeats=5,
    regression={
        "speedup": "higher",
        "fused_speedup": "higher",
        "f32_speedup": "higher",
    },
)


# ----------------------------------------------------------------------
# E14 — bounded intermediate footprint of the blocked GEMM kernel
# ----------------------------------------------------------------------
def run_memory_cell(
    n: int, d: int, width: int, precision: str, k: int = 5, chunk_mb: int = 2
) -> dict:
    """Peak intermediate bytes of the level GEMM, unblocked vs blocked.

    The blocked kernel streams the ``(width, n)`` similarity product in
    column blocks sized by :data:`repro.index.linear.BATCH_CHUNK_BYTES`
    (a per-dtype *element* budget, so float32 doubles the effective
    block width); this cell pins the ceiling to ``chunk_mb`` MiB, runs
    both ways, asserts the sums are bit-identical, and reports both
    high-water marks. A 4-query ``knn_distance_prefix_batch`` call runs
    under the same ceiling and is asserted bit-identical to its
    unblocked twin: ``peak_blocked_batch_mb`` shows the ceiling holds
    at any query count. A 64-query ``knn_full_prefix_batch`` call (the
    full-space unit, always float64, blocked by its own
    :data:`repro.index.linear.FULL_SPACE_BLOCK_BYTES`) is asserted
    equal to the exact scan, and its block's size is
    ``peak_full_space_mb``. The byte counts are deterministic, so
    ``peak_blocked_mb``, ``peak_blocked_batch_mb`` and
    ``peak_full_space_mb`` gate exactly (any growth past the CI
    tolerance means the ceiling logic regressed).
    """
    import repro.index.linear as linear_module

    rng = np.random.default_rng(E14_SEED)
    X = rng.normal(size=(n, d))
    query = rng.normal(size=d)
    backend = LinearScanIndex(X)
    masks = make_level_masks(rng, d, width)
    components = backend.distance_components(query)
    # Drawn last, so the one-query cell's data does not move.
    queries = rng.normal(size=(4, d))
    batch_components = [backend.distance_components(row) for row in queries]

    def run_once() -> "tuple[np.ndarray, int, float]":
        backend.stats.reset()
        start = time.perf_counter()
        sums = backend.knn_distance_prefix(
            query, k, masks, components=components, kernel="gemm", precision=precision
        ).sum(axis=1)
        elapsed = time.perf_counter() - start
        peak = backend.stats.snapshot().get("peak_intermediate_bytes", 0)
        return sums, peak, elapsed

    def run_batch() -> "tuple[np.ndarray, int]":
        backend.stats.reset()
        prefixes = backend.knn_distance_prefix_batch(
            queries,
            k,
            masks,
            components_list=batch_components,
            kernel="gemm",
            precision=precision,
        )
        return prefixes, backend.stats.snapshot().get("peak_intermediate_bytes", 0)

    saved = linear_module.BATCH_CHUNK_BYTES
    linear_module.BATCH_CHUNK_BYTES = 2**62  # effectively unblocked
    try:
        unblocked, peak_unblocked, unblocked_s = run_once()
        batch_unblocked, _ = run_batch()
        linear_module.BATCH_CHUNK_BYTES = chunk_mb * 2**20
        blocked, peak_blocked, blocked_s = run_once()
        counters = backend.stats.snapshot()
        batch_blocked, peak_blocked_batch = run_batch()
    finally:
        linear_module.BATCH_CHUNK_BYTES = saved

    assert np.array_equal(blocked, unblocked), (
        "blocked GEMM diverged from the unblocked kernel"
    )
    assert np.array_equal(batch_blocked, batch_unblocked), (
        "blocked multi-query GEMM diverged from the unblocked kernel"
    )

    # The full-space unit: 32 rows (themselves excluded) and 32 points,
    # drawn after everything above so the GEMM cells' data do not move.
    rows = rng.choice(n, size=32, replace=False)
    full_queries = np.vstack([X[rows], rng.normal(size=(32, d))])
    full_excludes = [int(row) for row in rows] + [None] * 32
    backend.stats.reset()
    full = backend.knn_full_prefix_batch(full_queries, k, full_excludes)
    peak_full_space = backend.stats.snapshot().get("peak_intermediate_bytes", 0)
    for query, exclude, prefix in zip(full_queries, full_excludes, full):
        assert np.array_equal(prefix, backend.knn(query, k, range(d), exclude=exclude)[1]), (
            "the full-space unit diverged from the exact scan"
        )

    return {
        "n": n,
        "d": d,
        "width": width,
        "k": k,
        "precision": precision,
        "chunk_mb": chunk_mb,
        "peak_unblocked_mb": peak_unblocked / 2**20,
        "peak_blocked_mb": peak_blocked / 2**20,
        "peak_blocked_batch_mb": peak_blocked_batch / 2**20,
        "peak_full_space_mb": peak_full_space / 2**20,
        "footprint_ratio": peak_unblocked / max(1, peak_blocked),
        "blocked_overhead": blocked_s / unblocked_s,
        "identical": True,
        "_counters": counters,
    }


def _e14_run(ctx, n: int, d: int, width: int, precision: str, chunk_mb: int) -> dict:
    return run_memory_cell(
        int(n), int(d), int(width), str(precision), chunk_mb=int(chunk_mb)
    )


E14_SPEC = ExperimentSpec(
    name="e14",
    title="Blocked GEMM memory ceiling (peak intermediate bytes)",
    grid={
        "n": (20000,),
        "d": (12,),
        "width": (256, 512),
        "precision": ("float64", "float32"),
    },
    smoke={"n": (20000,), "d": (12,), "width": (256,), "precision": ("float64", "float32")},
    fixed={"chunk_mb": 2},
    run=_e14_run,
    columns=[
        "n",
        "d",
        "width",
        "precision",
        "chunk_mb",
        "peak_unblocked_mb",
        "peak_blocked_mb",
        "peak_blocked_batch_mb",
        "peak_full_space_mb",
        "footprint_ratio",
        "blocked_overhead",
        "identical",
    ],
    expectation=(
        "column blocking caps the level GEMM's intermediate at the "
        "configured chunk budget regardless of n and of the query count, "
        "with bit-identical sums; the float32 tier halves both footprints "
        "at the same element budget"
    ),
    notes=[
        "blocked and unblocked sums asserted bit-identical on every cell "
        "(the reduction axis is never split; merging per-block k-prefixes "
        "is exact), for the one-query call and a 4-query batch call",
        "a 64-query full-space unit call is asserted equal to the exact "
        "scan; peak_full_space_mb is its float64 query block (13 rows of "
        "n=20000 under the 2 MiB budget), the same at both precisions",
    ],
    warmup=1,
    repeats=3,
    regression={
        "peak_blocked_mb": "lower",
        "peak_blocked_batch_mb": "lower",
        "peak_full_space_mb": "lower",
    },
)


# ----------------------------------------------------------------------
# E15 — row shards on threads
# ----------------------------------------------------------------------
def _best_cold_batch(miner: HOSMiner, targets: list, workers: int, reps: int):
    """Best-of-*reps* wall time of a cold ``query_batch`` (the per-fit OD
    cache invalidated before every call, so no answer is a replay) and
    the last call's result."""
    times = []
    for _ in range(reps):
        miner.od_cache_.invalidate()
        start = time.perf_counter()
        result = miner.query_batch(targets, workers=workers)
        times.append(time.perf_counter() - start)
    return min(times), result


def _same_answers(a, b) -> bool:
    return all(
        x.minimal == y.minimal and x.total_outlying == y.total_outlying
        for x, y in zip(a.results, b.results)
    )


def run_shard_cell(n: int, d: int, m: int, workers: int = 4, reps: int = 3) -> dict:
    """Time the in-process batch engine against the row-shard pool.

    Two arms over the same traffic-shaped batch, each best-of-``reps``
    over cold calls (:func:`_best_cold_batch`): ``seq`` runs in process
    (workers=1); ``shard`` runs ``workers`` row shards on the miner's
    persistent pool, built before the timed calls. ``scaling`` (seq /
    shard wall time) is recorded for the trajectory but not gated: it
    is a property of the runner's core count, not of the code.
    ``round_trips`` counts the scatter rounds of one batch and is
    deterministic.
    """
    workload = planted_workload(n=n, d=d, seed_offset=15)
    miner = standard_miner(workload, threshold_quantile=0.9)
    targets = make_traffic(workload, m)
    seq_s, sequential = _best_cold_batch(miner, targets, 1, reps)
    miner.query_batch(targets, workers=workers)  # build the pool, unmeasured
    shard_s, sharded = _best_cold_batch(miner, targets, workers, reps)
    miner.close()
    assert _same_answers(sequential, sharded), "sharded answers diverged from the in-process engine"
    return {
        "n": n,
        "d": d,
        "m": m,
        "workers": sharded.workers,
        "seq_qps": m / seq_s,
        "shard_qps": m / shard_s,
        "scaling": seq_s / shard_s,
        "round_trips": sharded.stats.shard_round_trips,
        "_counters": miner.backend_.stats.snapshot(),
    }


def run_thread_cell(n: int, d: int, planted: int, workers: int = 2, reps: int = 3) -> dict:
    """The cell where row shards pay: a cold, kernel-heavy batch.

    The targets are ``planted`` planted outliers and ``planted - 1``
    random rows of an ``(n, d)`` planted workload, whose searches walk
    deep into the lattice, so the prefix kernel and its top-k dominate
    — the work that one thread cannot parallelise and row shards can.
    ``thread_speedup`` is the best-of-``reps`` cold wall time at
    workers=1 over the same at ``workers``.
    """
    workload = planted_workload(
        n=n, d=d, n_outliers=planted, n_inlier_queries=planted - 1, seed_offset=15
    )
    miner = standard_miner(workload)
    targets = workload.query_rows
    seq_s, sequential = _best_cold_batch(miner, targets, 1, reps)
    shard_s, sharded = _best_cold_batch(miner, targets, workers, reps)
    miner.close()
    assert _same_answers(sequential, sharded), "sharded answers diverged from the in-process engine"
    return {
        "n": n,
        "d": d,
        "m": len(targets),
        "workers": sharded.workers,
        "seq_qps": len(targets) / seq_s,
        "shard_qps": len(targets) / shard_s,
        "thread_speedup": seq_s / shard_s,
        "round_trips": sharded.stats.shard_round_trips,
        "_counters": miner.backend_.stats.snapshot(),
    }


#: E15's thread-scaling cell ``(n, d, targets)``: 32 planted outliers and
#: 31 random rows at n=32000, d=12, timed at workers=1 and workers=2.
THREAD_CELL = (32000, 12, 63)


def _e15_run(ctx, cell: tuple, workers: int, reps: int) -> dict:
    n, d, m = (int(value) for value in cell)
    if tuple(cell) == THREAD_CELL:
        return run_thread_cell(n, d, (m + 1) // 2, reps=int(reps))
    return run_shard_cell(n, d, m, workers=int(workers), reps=int(reps))


E15_SPEC = ExperimentSpec(
    name="e15",
    title="Row shards on threads",
    grid={"cell": ((1500, 10, 16), (3000, 10, 16), (3000, 10, 48), THREAD_CELL)},
    smoke={"cell": ((1500, 10, 16), (3000, 10, 16), THREAD_CELL)},
    fixed={"workers": 4, "reps": 3},
    run=_e15_run,
    columns=[
        "n",
        "d",
        "m",
        "workers",
        "seq_qps",
        "shard_qps",
        "scaling",
        "thread_speedup",
        "round_trips",
    ],
    expectation=(
        "the row-shard pool answers element-wise identical results; on "
        "a cold, kernel-heavy batch near n=32000 two shards beat the "
        "in-process engine, while small traffic-shaped batches are "
        "bound by per-search bookkeeping that shards do not split"
    ),
    notes=[
        "identical answers verified against the in-process engine for "
        "every row",
        "the traffic cells run `workers` shards; the n=32000 cell "
        "(32 planted outliers + 31 random rows) times workers=1 against "
        "workers=2, and its thread_speedup is gated",
        "scaling (seq/shard wall time of the traffic cells) is recorded "
        "but not gated; round_trips is deterministic and gates exactly",
    ],
    repeats=3,
    regression={
        "thread_speedup": "higher",
        "round_trips": "lower",
    },
)


# ----------------------------------------------------------------------
# E17 — incremental streaming engine versus refit-from-scratch
# ----------------------------------------------------------------------
def run_stream_cell(
    window: int,
    d: int,
    batch_size: int,
    probes: int,
    cycles: int,
    index: str = "linear",
    workers: int = 1,
    k: int = 5,
    reps: int = 3,
) -> dict:
    """Sustained insert+query throughput, incremental vs refit, one cell.

    The workload is a *monitoring deployment*: one gently drifting
    stream supplies both the warm window and the batches pushed after
    it (same wandering mixture, so fresh rows are mostly inliers), and
    a fixed watchlist of near-manifold points is re-polled every cycle.
    A warm window is fitted once to calibrate the outlier threshold
    ``T`` (the deployment's contract is a *fixed* T — see
    :mod:`repro.core.stream`); both arms then answer the same stream
    with that explicit threshold, each best-of-``reps``:

    - ``stream``: one warm fit outside the timer (paid once per
      deployment, not per batch), then per cycle a
      :meth:`~repro.core.stream.StreamEngine.push` (in-place index
      update, delta OD-cache invalidation, live shard sync) plus a
      query of the fresh rows and a watchlist re-poll. The watchlist's
      cache keys are stable across pushes, so its re-polls replay
      delta-retained entries instead of recomputing them.
    - ``refit``: per cycle a fresh ``HOSMiner(threshold=T)`` fitted from
      scratch on the equivalent window (index build, component caches,
      prior-learning sample searches — everything a non-incremental
      deployment pays per batch), then the same queries, all cold.

    Every cycle's streamed answers — fresh rows and watchlist alike —
    are asserted element-wise identical (``minimal``,
    ``total_outlying``, ``od_values``) to the fresh-fit oracle's and
    recorded as the gated ``identity`` measure (1.0; a float because
    the snapshot comparator skips booleans). ``stream_speedup``
    (refit / stream wall time) is the headline gate; the delta-cache
    ``cache_retained`` / ``cache_evicted`` counters are deterministic
    under the fixed seed and recorded for the trajectory.
    """
    if window % batch_size:
        raise ValueError(
            f"window ({window}) must be a multiple of batch_size ({batch_size})"
        )
    prefix = window // batch_size
    stream = make_drift_stream(
        prefix + cycles, batch_size, d, drift_per_batch=0.05, seed=E17_SEED
    )
    warm = np.vstack(stream[:prefix])
    batches = stream[prefix:]

    calibration = HOSMiner(
        k=k, sample_size=10, threshold_quantile=0.95, index=index
    )
    calibration.fit(warm)
    threshold = float(calibration.threshold_)
    calibration.close()

    rng = np.random.default_rng(E17_SEED + 1)
    watchlist = [
        warm[i] + rng.normal(scale=0.05, size=d)
        for i in rng.choice(window, probes, replace=False)
    ]

    def query(serving, targets):
        if workers > 1:
            return serving.query_batch(targets, workers=workers)
        return serving.query_batch(targets)

    stream_times: list[float] = []
    refit_times: list[float] = []
    for _ in range(reps):
        # Incremental arm: push, query the fresh rows, re-poll the
        # watchlist.
        miner = HOSMiner(
            k=k, sample_size=10, threshold=threshold,
            stream_window=window, index=index,
        )
        miner.fit(warm)
        stream_results = []
        with StreamEngine(miner) as engine:
            start = time.perf_counter()
            for rows in batches:
                engine.push(rows)
                fresh = list(
                    range(engine.occupancy - rows.shape[0], engine.occupancy)
                )
                stream_results.append(
                    (query(engine, fresh), query(engine, watchlist))
                )
            stream_times.append(time.perf_counter() - start)
        retained = miner.od_cache_.delta_retained
        evicted = miner.od_cache_.delta_evicted
        counters = miner.backend_.stats.snapshot()
        miner.close()

        # Refit arm: a fresh fit on the equivalent window every cycle.
        frame = warm
        refit_results = []
        start = time.perf_counter()
        for rows in batches:
            frame = np.vstack([frame, rows])[-window:]
            fresh = list(range(frame.shape[0] - rows.shape[0], frame.shape[0]))
            oracle = HOSMiner(
                k=k, sample_size=10, threshold=threshold, index=index
            )
            oracle.fit(frame)
            refit_results.append(
                (query(oracle, fresh), query(oracle, watchlist))
            )
            oracle.close()
        refit_times.append(time.perf_counter() - start)

        for cycle, (streamed, refitted) in enumerate(
            zip(stream_results, refit_results)
        ):
            for streamed_arm, refitted_arm in zip(streamed, refitted):
                assert all(
                    a.minimal == b.minimal
                    and a.total_outlying == b.total_outlying
                    and a.od_values == b.od_values
                    for a, b in zip(streamed_arm.results, refitted_arm.results)
                ), (
                    "streamed answers diverged from the fresh-fit oracle "
                    f"at cycle {cycle}"
                )

    stream_s, refit_s = min(stream_times), min(refit_times)
    m = cycles * (batch_size + probes)
    return {
        "window": window,
        "d": d,
        "batch": batch_size,
        "probes": probes,
        "cycles": cycles,
        "index": index,
        "workers": workers,
        "stream_qps": m / stream_s,
        "refit_qps": m / refit_s,
        "stream_speedup": refit_s / stream_s,
        "cache_retained": retained,
        "cache_evicted": evicted,
        # Asserted above for every cycle of every rep; recorded as a
        # float so the snapshot comparator gates it (it skips booleans).
        "identity": 1.0,
        "_counters": counters,
    }


def _e17_run(ctx, cell: tuple, k: int, reps: int) -> dict:
    window, d, batch_size, probes, cycles, index, workers = cell
    return run_stream_cell(
        int(window), int(d), int(batch_size), int(probes), int(cycles),
        index=str(index), workers=int(workers), k=int(k), reps=int(reps),
    )


E17_SPEC = ExperimentSpec(
    name="e17",
    title="Incremental streaming engine vs refit-from-scratch (sliding window)",
    # cell = (window, d, batch_size, probes, cycles, index, workers).
    # The smoke cell streams through the paper's VA-file — the index the
    # engine updates in place; the full tier adds the linear-scan buffer
    # and a workers=2 cell exercising live shard sync.
    grid={"cell": (
        (6400, 8, 4, 48, 8, "vafile", 1),
        (6400, 8, 4, 48, 8, "linear", 1),
        (6400, 8, 4, 48, 8, "linear", 2),
    )},
    smoke={"cell": ((6400, 8, 4, 48, 8, "vafile", 1),)},
    fixed={"k": 5, "reps": 3},
    run=_e17_run,
    columns=[
        "window",
        "d",
        "batch",
        "probes",
        "cycles",
        "index",
        "workers",
        "stream_qps",
        "refit_qps",
        "stream_speedup",
        "cache_retained",
        "cache_evicted",
        "identity",
    ],
    expectation=(
        "pushing a batch through the sliding window (in-place index "
        "update + delta OD-cache invalidation + live shard sync), "
        "querying the fresh rows and re-polling the watchlist beats "
        "fitting a new miner on the equivalent window every batch by "
        ">=3x, with every answer element-wise identical to the "
        "fresh-fit oracle"
    ),
    notes=[
        "identity is asserted per cycle against a fresh fit on the "
        "equivalent window with the same explicit threshold and gated "
        "at 1.0",
        "both arms keep the calibrated threshold fixed: a quantile "
        "re-drawn per window would answer a different question (see "
        "docs/streaming.md); cache_retained/cache_evicted are "
        "deterministic under the fixed seed and recorded for the "
        "trajectory but not gated",
        "the speedup comes from the arm-specific costs: refit pays the "
        "per-cycle fit (index build + prior-learning searches) and "
        "cold watchlist polls, stream pays one push plus mostly "
        "cache-replayed polls; the fresh-row queries are cold in both "
        "arms and only dilute the ratio",
    ],
    repeats=3,
    regression={"stream_speedup": "higher", "identity": "higher"},
)


#: The perf-trajectory specs (committed snapshots + CI gate).
PERF_SPECS = {
    spec.name: spec
    for spec in (E12_SPEC, E13_SPEC, E14_SPEC, E15_SPEC, E17_SPEC)
}
