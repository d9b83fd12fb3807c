"""E0 — saving factors (Definitions 1-3) and the paper's worked examples.

Benchmarks the TSF computation (the per-step scheduling cost of the
dynamic search); ``python benchmarks/bench_e0_savings.py`` prints the
full E0 table.
"""

from __future__ import annotations

from repro.bench.experiments import E0_SPEC
from repro.bench.script import run_script
from repro.core.lattice import SubspaceLattice
from repro.core.savings import (
    downward_saving_factor,
    total_saving_factors,
    upward_saving_factor,
)


def test_benchmark_tsf_evaluation(benchmark):
    """Time one full TSF pass over every level of a d=16 space — the
    computation `_select_level` performs per search step."""
    d = 16
    levels = list(range(1, d + 1))
    p_up, p_down = [0.4] * (d + 1), [0.6] * (d + 1)
    workloads = SubspaceLattice(d).remaining_workloads()

    def sweep() -> float:
        return sum(total_saving_factors(d, levels, p_up, p_down, workloads))

    result = benchmark(sweep)
    assert result > 0


def test_benchmark_saving_factor_tables(benchmark):
    """Time the (cached) DSF/USF lookups across a realistic level range."""

    def lookups():
        return sum(
            downward_saving_factor(m) + upward_saving_factor(m, 18)
            for m in range(1, 19)
        )

    assert benchmark(lookups) > 0


def main() -> None:
    run_script(E0_SPEC)


if __name__ == "__main__":
    main()
