"""E15 — row shards on threads.

``workers > 1`` splits the fitted window into contiguous row shards and
runs each batch's work units on every shard at once: the calling thread
takes shard 0 and one thread of a persistent pool each other shard.
Because OD is additive over data points, the exact k-way merge of
per-shard sorted k-prefixes reproduces the in-process kernels bit for
bit.

Shards pay where the prefix kernel and its top-k dominate: the gated
``thread_speedup`` times a cold batch of 32 planted outliers and 31
random rows at n=32000, d=12, at one worker against two. The
traffic-shaped cells record ``shard_qps`` and ``scaling`` for the
trajectory and gate the deterministic ``round_trips`` counter.

The measurement lives in :data:`repro.bench.perf.E15_SPEC`; this script
is its classic entry point. ``python benchmarks/bench_e15_shard_engine.py``
prints the full table; ``--fast`` runs the CI smoke grid; ``--save
[PATH]`` writes the canonical ``BENCH_e15.json`` snapshot (the
committed baseline the CI regression gate compares against — see
docs/benchmarking.md). The pytest-benchmark twin times a cold batch
over a warm 2-shard pool on a small fixed batch.
"""

from __future__ import annotations

from repro.bench.perf import E15_SPEC
from repro.bench.script import run_script
from repro.bench.workloads import small_batch_setup


# ----------------------------------------------------------------------
# pytest-benchmark twins (small fixed batch, regression tracking)
# ----------------------------------------------------------------------
def test_benchmark_shard_pool_warm(benchmark):
    """Time 64 traffic-shaped queries through a persistent 2-shard pool.

    The pool is built before the first round; every round invalidates
    the per-fit cache so it measures a cold batch over a warm pool.
    """
    miner, targets = small_batch_setup()
    miner.query_batch(targets, workers=2)  # build the pool, unmeasured

    def run():
        miner.od_cache_.invalidate()
        return miner.query_batch(targets, workers=2)

    result = benchmark(run)
    miner.close()
    assert len(result) == 64
    assert result.stats.shard_round_trips > 0


# ----------------------------------------------------------------------
def main() -> None:
    run_script(E15_SPEC, default_tier="full")


if __name__ == "__main__":
    main()
