"""E13 — GEMM level-wide OD kernel versus the exact per-mask loop.

The tentpole microbenchmark: one query point, one lattice level's worth
of subspace masks, and the two kernels of
:meth:`~repro.index.linear.LinearScanIndex.knn_distance_prefix` head to
head, each summed into OD values. The exact kernel is the first batched
engine's hot loop — one gather-and-reduce over the cached component
matrix per mask; the GEMM kernel answers every mask with a single
``M @ C.T`` BLAS product plus one axis-wise top-k selection. A third
column (``fused``) times one ``knn_distance_prefix_batch`` call over
four queries — one float64 product per query — normalised per query.

The measurement lives in :data:`repro.bench.perf.E13_SPEC`; this script
is its classic entry point. ``python benchmarks/bench_e13_od_kernel.py``
prints the full sweep over dimensionality and level width; ``--fast``
runs the CI smoke grid; ``--save [PATH]`` writes the canonical
``BENCH_e13.json`` snapshot (the committed baseline the CI regression
gate compares against — see docs/benchmarking.md). The pytest-benchmark
twins time one representative cell of each kernel.
"""

from __future__ import annotations

from repro.bench.perf import E13_SPEC
from repro.bench.script import run_script
from repro.bench.workloads import kernel_cell_setup


# ----------------------------------------------------------------------
# pytest-benchmark twins (one representative cell, regression tracking)
# ----------------------------------------------------------------------
def test_benchmark_od_kernel_exact(benchmark):
    """Time 64 subspace OD sums through the exact gather loop."""
    backend, query, masks, components = kernel_cell_setup()
    result = benchmark(
        lambda: backend.knn_distance_prefix(
            query, 5, masks, components=components, kernel="exact"
        ).sum(axis=1)
    )
    assert result.shape == (64,)


def test_benchmark_od_kernel_gemm(benchmark):
    """Time the same 64 sums through the level-wide GEMM kernel."""
    backend, query, masks, components = kernel_cell_setup()
    result = benchmark(
        lambda: backend.knn_distance_prefix(
            query, 5, masks, components=components, kernel="gemm"
        ).sum(axis=1)
    )
    assert result.shape == (64,)


def test_benchmark_od_kernel_gemm_float32(benchmark):
    """Time the same 64 sums through the float32 GEMM tier."""
    from repro.index.base import components32_from

    backend, query, masks, components = kernel_cell_setup()
    components32 = components32_from(components)
    result = benchmark(
        lambda: backend.knn_distance_prefix(
            query,
            5,
            masks,
            components=components,
            kernel="gemm",
            precision="float32",
            components32=components32,
        ).sum(axis=1)
    )
    assert result.shape == (64,)


# ----------------------------------------------------------------------
def main() -> None:
    run_script(E13_SPEC, default_tier="full")


if __name__ == "__main__":
    main()
