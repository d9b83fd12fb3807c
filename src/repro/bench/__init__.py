"""Benchmark package: declarative experiment harness plus the suite.

Layered bottom-up (see ``docs/benchmarking.md``):

- :mod:`repro.bench.spec` — :class:`ExperimentSpec`: IV grids crossed
  into hashed conditions.
- :mod:`repro.bench.runner` — :func:`run_spec`: warm-up/repeat policy,
  metadata stamping, :class:`SpecResult`.
- :mod:`repro.bench.snapshot` — canonical ``BENCH_*.json`` snapshots and
  the CI regression comparator.
- :mod:`repro.bench.workloads` / :mod:`repro.bench.measures` /
  :mod:`repro.bench.reporting` / :mod:`repro.bench.harness` — shared
  inputs, quality measures, and table rendering.
- :mod:`repro.bench.experiments` (paper tables f1, e0–e11) and
  :mod:`repro.bench.perf` (perf trajectory e12–e17) — the specs.

:data:`ALL_SPECS` is the merged registry driven by ``repro bench``;
:data:`ALL_EXPERIMENTS` keeps the classic ``eN(fast=True)`` entry
points for the ``experiment`` CLI subcommand.
"""

from repro.bench.experiments import ALL_EXPERIMENTS, SPECS
from repro.bench.harness import Experiment, timed
from repro.bench.measures import PlantedRecovery, SetScores, planted_recovery, set_scores
from repro.bench.perf import (
    E12_SPEC,
    E13_SPEC,
    E14_SPEC,
    E15_SPEC,
    E17_SPEC,
    PERF_SPECS,
)
from repro.bench.reporting import Table, format_value, save_json
from repro.bench.runner import ConditionRecord, SpecResult, run_metadata, run_spec
from repro.bench.snapshot import (
    DEFAULT_TOLERANCE,
    Comparison,
    RegressionReport,
    SnapshotError,
    compare_snapshots,
    load_snapshot,
    save_snapshot,
    snapshot_path,
    validate_snapshot,
)
from repro.bench.spec import Condition, ExperimentSpec, SpecError, cross_grid, param_hash
from repro.bench.workloads import (
    SEED,
    Workload,
    make_level_masks,
    make_traffic,
    planted_workload,
    standard_miner,
)

#: Every spec the ``repro bench`` subcommand can run, by name.
ALL_SPECS = {**SPECS, **PERF_SPECS}

__all__ = [
    "ALL_EXPERIMENTS",
    "ALL_SPECS",
    "Comparison",
    "Condition",
    "ConditionRecord",
    "DEFAULT_TOLERANCE",
    "E12_SPEC",
    "E13_SPEC",
    "E14_SPEC",
    "E15_SPEC",
    "E17_SPEC",
    "Experiment",
    "ExperimentSpec",
    "PERF_SPECS",
    "PlantedRecovery",
    "RegressionReport",
    "SEED",
    "SPECS",
    "SetScores",
    "SnapshotError",
    "SpecError",
    "SpecResult",
    "Table",
    "Workload",
    "compare_snapshots",
    "cross_grid",
    "format_value",
    "load_snapshot",
    "make_level_masks",
    "make_traffic",
    "param_hash",
    "planted_recovery",
    "planted_workload",
    "run_metadata",
    "run_spec",
    "save_json",
    "save_snapshot",
    "set_scores",
    "snapshot_path",
    "standard_miner",
    "timed",
    "validate_snapshot",
]
