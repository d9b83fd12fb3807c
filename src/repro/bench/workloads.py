"""Shared workload construction for the experiment and benchmark suite.

This module is the single source of truth for dataset-generation
defaults: the E-series planted workloads, the standard miner
configuration, the traffic-shaped batch targets (E12), the random
level-mask batches (E13), and the fixed setups behind the
pytest-benchmark twins in ``benchmarks/``. Centralising them keeps
every experiment spec, benchmark script and fixture on *identical*
inputs, so published table values can be regenerated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.miner import HOSMiner
from repro.data.synthetic import Dataset, make_planted_outliers

__all__ = [
    "SEED",
    "E13_SEED",
    "E14_SEED",
    "E15_SEED",
    "E17_SEED",
    "Workload",
    "planted_workload",
    "standard_miner",
    "standard_workload_d10",
    "uniform_16d",
    "make_traffic",
    "make_level_masks",
    "small_batch_setup",
    "kernel_cell_setup",
    "stream_setup",
]

#: Seed base for every experiment workload; per-config offsets keep
#: configurations independent but reproducible.
SEED = 20040830  # VLDB 2004 opened on 30 Aug 2004.

#: Seed for the E13 kernel microbenchmark (E-series offset convention).
E13_SEED = SEED + 13

#: Seed for the E14 memory-ceiling benchmark.
E14_SEED = SEED + 14

#: Seed for the E15 sharded scatter-gather benchmark.
E15_SEED = SEED + 15

#: Seed for the E17 streaming-engine benchmark.
E17_SEED = SEED + 17


@dataclass(slots=True)
class Workload:
    """A dataset plus the rows every method will be queried on."""

    dataset: Dataset
    query_rows: list[int]

    @property
    def planted_queries(self) -> list[int]:
        planted = set(self.dataset.outlier_rows)
        return [row for row in self.query_rows if row in planted]

    @property
    def inlier_queries(self) -> list[int]:
        planted = set(self.dataset.outlier_rows)
        return [row for row in self.query_rows if row not in planted]


def planted_workload(
    n: int,
    d: int,
    n_outliers: int = 4,
    n_inlier_queries: int = 4,
    subspace_dims: "tuple[int, ...] | int" = (2, 3),
    displacement: float = 8.0,
    seed_offset: int = 0,
) -> Workload:
    """The standard E-series workload: planted outliers + inlier controls.

    Query rows are all planted outliers plus ``n_inlier_queries``
    deterministic non-planted rows.
    """
    dataset = make_planted_outliers(
        n=n,
        d=d,
        n_outliers=n_outliers,
        subspace_dims=subspace_dims,
        displacement=displacement,
        seed=SEED + seed_offset,
    )
    rng = np.random.default_rng(SEED + seed_offset + 999)
    inliers = rng.choice(
        np.arange(n_outliers, n), size=n_inlier_queries, replace=False
    )
    query_rows = list(range(n_outliers)) + sorted(int(row) for row in inliers)
    return Workload(dataset=dataset, query_rows=query_rows)


def standard_miner(
    workload: Workload,
    k: int = 5,
    sample_size: int = 8,
    threshold_quantile: float = 0.99,
    **overrides,
) -> HOSMiner:
    """A fitted miner with the E-series default configuration."""
    miner = HOSMiner(
        k=k,
        sample_size=sample_size,
        threshold_quantile=threshold_quantile,
        **overrides,
    )
    return miner.fit(workload.dataset.X)


# ----------------------------------------------------------------------
# Fixture-grade defaults (shared with benchmarks/conftest.py)
# ----------------------------------------------------------------------
def standard_workload_d10() -> Workload:
    """The canonical fixture workload: n=1000, d=10, planted outliers."""
    return planted_workload(n=1000, d=10, seed_offset=0)


def uniform_16d() -> np.ndarray:
    """Uniform high-d data — the X-tree supernode regime."""
    return np.random.default_rng(8).uniform(size=(2000, 16))


# ----------------------------------------------------------------------
# E12 — traffic-shaped batch targets
# ----------------------------------------------------------------------
def make_traffic(workload: Workload, m: int, hot_fraction: float = 0.3) -> list:
    """A traffic-shaped target list: rows, external points, repeats.

    Production query streams are Zipf-heavy — a small set of hot points
    accounts for a disproportionate share of requests. Here roughly
    ``hot_fraction`` of the batch re-queries a small hot set (rows and
    external points alike), the planted outliers are queried (the
    expensive searches real monitoring traffic cares about), and the
    rest are unique rows and fresh external points near the manifold.
    """
    X = workload.dataset.X
    n, d = X.shape
    rng = np.random.default_rng(SEED + 4242)
    targets: list = list(workload.query_rows)

    hot_rows = [int(row) for row in rng.choice(n, size=4, replace=False)]
    hot_points = list(
        X[rng.choice(n, size=4, replace=False)]
        + rng.normal(scale=0.05, size=(4, d))
    )
    # The planted outliers belong in the hot set: monitoring traffic
    # re-polls exactly the entities it has flagged, and those are the
    # expensive (eval-heavy) searches.
    hot_pool = list(workload.query_rows) + hot_rows + hot_points
    while len(targets) < m:
        draw = rng.random()
        if draw < hot_fraction:
            targets.append(hot_pool[int(rng.integers(len(hot_pool)))])
        elif draw < 0.5 + hot_fraction / 2:
            targets.append(int(rng.integers(n)))
        else:
            base = X[int(rng.integers(n))] + rng.normal(scale=0.05, size=d)
            targets.append(base)
    return targets[:m]


def small_batch_setup(**overrides):
    """The E12 pytest-benchmark twin setup: a small fixed batch.

    Returns ``(miner, targets)`` for 64 traffic-shaped queries on an
    n=600, d=8 workload — big enough to exercise the batch engine,
    small enough for per-round benchmark timing. Keyword *overrides*
    reach the miner config (the E16 twins arm supervision deadlines).
    """
    workload = planted_workload(n=600, d=8, seed_offset=12)
    miner = standard_miner(workload, threshold_quantile=0.9, **overrides)
    targets = make_traffic(workload, 64)
    return miner, targets


# ----------------------------------------------------------------------
# E13 — level-wide kernel inputs
# ----------------------------------------------------------------------
def make_level_masks(rng: np.random.Generator, d: int, width: int) -> np.ndarray:
    """A level-ish batch of *width* random subspace masks over ``d`` dims,
    as the int64 mask array the prefix kernels take.

    Real rounds mix levels (different searches expand different levels),
    so widths beyond one level's worth draw masks of every size — the
    kernel's cost depends on ``(n, d, width)``, not on which masks.
    """
    masks = np.empty(width, dtype=np.int64)
    for j in range(width):
        size = int(rng.integers(1, d + 1))
        masks[j] = np.bitwise_or.reduce(1 << rng.choice(d, size=size, replace=False))
    return masks


# ----------------------------------------------------------------------
# E17 — streaming window inputs
# ----------------------------------------------------------------------
def stream_setup(
    window: int = 400,
    d: int = 8,
    batch_size: int = 8,
    n_batches: int = 6,
    probes: int = 16,
    drift: float = 0.05,
    **overrides,
):
    """The E17 monitoring workload: warm miner, drift batches, watchlist.

    One gently drifting stream supplies *both* the warm window (its
    first ``window / batch_size`` batches, vstacked) and the batches
    pushed afterwards, so fresh rows are drawn from the same wandering
    mixture the window tracks — mostly inliers, the regime where the
    delta cache retains. The watchlist is a fixed set of near-manifold
    monitoring points (warm rows plus small noise) re-polled every
    cycle; its cache keys are stable across pushes, which is exactly
    what the incremental arm gets paid for.

    Returns ``(miner, batches, watchlist)``: a miner fitted on the warm
    window with ``stream_window`` armed and config-default priors, the
    oldest-first stream batches, and the watchlist points. Keyword
    *overrides* reach the miner config (the full-tier cells arm
    ``index`` and ``workers``).
    """
    from repro.data.synthetic import make_drift_stream

    if window % batch_size:
        raise ValueError(
            f"window ({window}) must be a multiple of batch_size ({batch_size})"
        )
    prefix = window // batch_size
    stream = make_drift_stream(
        prefix + n_batches, batch_size, d, drift_per_batch=drift, seed=E17_SEED
    )
    warm = np.vstack(stream[:prefix])
    miner = HOSMiner(
        k=5,
        sample_size=10,
        threshold_quantile=0.95,
        stream_window=window,
        **overrides,
    )
    miner.fit(warm)
    rng = np.random.default_rng(E17_SEED + 1)
    watchlist = [
        warm[i] + rng.normal(scale=0.05, size=d)
        for i in rng.choice(window, probes, replace=False)
    ]
    return miner, stream[prefix:], watchlist


def kernel_cell_setup(n: int = 2000, d: int = 12, width: int = 64):
    """The E13 pytest-benchmark twin setup: one representative kernel cell.

    Returns ``(backend, query, masks, components)`` drawn with the E13
    seed, matching one cell of the full sweep.
    """
    from repro.index.linear import LinearScanIndex

    rng = np.random.default_rng(E13_SEED)
    X = rng.normal(size=(n, d))
    query = rng.normal(size=d)
    backend = LinearScanIndex(X)
    masks = make_level_masks(rng, d, width)
    components = backend.distance_components(query)
    return backend, query, masks, components
