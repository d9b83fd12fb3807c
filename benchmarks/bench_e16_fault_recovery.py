"""E16 — fault recovery: supervised shard execution under injected faults.

The fault-tolerant shard engine promises that worker failures cost
throughput, never correctness: a crashed worker is respawned onto its
existing shared-memory segment and the in-flight round replayed; a hung
worker trips the ``timeout_s`` reply deadline, is killed and respawned;
a shard whose every incarnation dies (``gen=any``) is served in-process
by the coordinator through the same sequential kernels. This benchmark
measures exactly those promises with the deterministic fault-injection
harness (:mod:`repro.testing.faults`): four arms — clean, crash, hang,
permanently dead — over the same traffic-shaped batch, every arm's
answers asserted element-wise identical to the sequential engine.

Gated measures are the identity flag and the supervision counters
(``respawns``/``timeouts``/``degraded_rounds`` — deterministic under
injection); ``recovery_ms`` (crash-arm minus clean-arm wall time) and
the per-arm throughputs are recorded for the trajectory but not gated,
since absolute latency is runner noise (and the hang arm's wall time is
bounded below by the 0.5 s deadline by construction).

The measurement lives in :data:`repro.bench.perf.E16_SPEC`; this script
is its classic entry point. ``python benchmarks/bench_e16_fault_recovery.py``
prints the full table; ``--fast`` runs the CI smoke grid; ``--save
[PATH]`` writes the canonical ``BENCH_e16.json`` snapshot (the
committed baseline the CI regression gate compares against — see
docs/benchmarking.md). The pytest-benchmark twins time a clean warm
pool against one recovering from an injected crash on a small fixed
batch.
"""

from __future__ import annotations

from repro.bench.perf import E16_SPEC
from repro.bench.script import run_script
from repro.bench.workloads import small_batch_setup
from repro.testing.faults import fault_env


# ----------------------------------------------------------------------
# pytest-benchmark twins (small fixed batch, regression tracking)
# ----------------------------------------------------------------------
def test_benchmark_fault_free_pool(benchmark):
    """Baseline: 64 traffic-shaped queries through a healthy 2-shard
    supervised pool (deadlines armed, nothing injected)."""
    with fault_env(None):
        miner, targets = small_batch_setup(timeout_s=5.0, backoff_s=0.01)
        miner.query_batch(targets, workers=2)  # spin up, unmeasured

        def run():
            miner.od_cache_.invalidate()
            return miner.query_batch(targets, workers=2)

        result = benchmark(run)
        miner.close()
    assert len(result) == 64
    assert result.stats.worker_respawns == 0


def test_benchmark_crash_recovery(benchmark):
    """The same batch with shard 0 crashing on its third round of every
    fresh pool: each measured round pays detection + respawn + replay."""
    with fault_env("crash:shard=0:round=3"):
        miner, targets = small_batch_setup(timeout_s=5.0, backoff_s=0.01)

        def run():
            miner.close()  # fresh pool: the gen-0 fault re-fires
            miner.od_cache_.invalidate()
            return miner.query_batch(targets, workers=2)

        result = benchmark(run)
        miner.close()
    assert len(result) == 64
    assert result.stats.worker_respawns == 1


# ----------------------------------------------------------------------
def main() -> None:
    run_script(E16_SPEC, default_tier="full")


if __name__ == "__main__":
    main()
