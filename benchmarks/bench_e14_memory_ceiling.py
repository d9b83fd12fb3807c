"""E14 — blocked GEMM memory ceiling (peak intermediate bytes).

The level-wide GEMM kernel's scratch product is ``(width, n)`` floats —
unbounded in ``n``. Column blocking streams it in chunks sized by
:data:`repro.index.linear.BATCH_CHUNK_BYTES` (a per-dtype *element*
budget, so the float32 tier fits twice the block width in the same
bytes), merging per-block k-smallest prefixes exactly. This experiment
pins the ceiling to a small budget, runs the kernel both ways on the
same cell, asserts the sums are bit-identical, and records both
high-water marks from the backend's ``peak_intermediate_bytes`` counter.
A 4-query ``knn_distance_prefix_batch`` call runs under the same
ceiling (``peak_blocked_batch_mb``), asserted bit-identical to its
unblocked twin.

The measurement lives in :data:`repro.bench.perf.E14_SPEC`; this script
is its classic entry point. ``python benchmarks/bench_e14_memory_ceiling.py``
prints the full sweep; ``--fast`` runs the CI smoke grid; ``--save
[PATH]`` writes the canonical ``BENCH_e14.json`` snapshot (the committed
baseline the CI regression gate compares against — the byte counts are
deterministic, so the gate is exact). The pytest-benchmark twin times
the blocked kernel on one representative cell.
"""

from __future__ import annotations

import numpy as np

from repro.bench.perf import E14_SPEC, run_memory_cell
from repro.bench.script import run_script


# ----------------------------------------------------------------------
# pytest-benchmark twin (one representative cell, regression tracking)
# ----------------------------------------------------------------------
def test_benchmark_memory_ceiling_blocked(benchmark):
    """Time one blocked-vs-unblocked memory cell (float32 tier)."""
    row = benchmark(lambda: run_memory_cell(20000, 12, 256, "float32", chunk_mb=2))
    assert row["identical"]
    assert row["peak_blocked_mb"] <= 2.0 + 1e-9
    assert row["peak_blocked_batch_mb"] <= 2.0 + 1e-9
    assert np.isfinite(row["footprint_ratio"])


# ----------------------------------------------------------------------
def main() -> None:
    run_script(E14_SPEC, default_tier="full")


if __name__ == "__main__":
    main()
