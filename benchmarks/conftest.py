"""Shared fixtures for the benchmark suite.

Run the pytest-benchmark twins by naming their files (pytest collects
only ``test_*.py`` from a directory, and these are ``bench_*.py``)::

    PYTHONPATH=src python -m pytest benchmarks/*.py --benchmark-only

``--benchmark-disable`` instead runs each body once, untimed, as CI
does. Workloads are session-scoped so a run pays dataset construction
and miner fitting once, and the timed bodies measure only the
operation under study. The construction itself lives
in :mod:`repro.bench.workloads` — the single source of truth shared
with the experiment specs.
"""

from __future__ import annotations

import pytest

from repro.bench import workloads


@pytest.fixture(scope="session")
def workload_d10():
    """The standard E-series workload: n=1000, d=10, planted outliers."""
    return workloads.standard_workload_d10()


@pytest.fixture(scope="session")
def miner_d10(workload_d10):
    """Paper-faithful miner (learned priors) fitted on workload_d10."""
    return workloads.standard_miner(workload_d10)


@pytest.fixture(scope="session")
def adaptive_miner_d10(workload_d10):
    """Adaptive-prior variant fitted on the same workload."""
    return workloads.standard_miner(workload_d10, adaptive=True)


@pytest.fixture(scope="session")
def uniform_16d():
    """Uniform high-d data — the X-tree supernode regime."""
    return workloads.uniform_16d()
