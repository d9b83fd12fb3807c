"""Sample-based learning of the pruning priors — Section 3.2.

Before query points are served, HOS-Miner runs the full dynamic search
on a small random sample of dataset points, using the uniform prior
assumption (0.5/0.5 at interior levels). Each sample search decides the
outlier status of *every* subspace (evaluation plus lossless pruning),
so the per-level outlying fraction

    p_up(m, sp) = |{s : dim(s) = m, OD_s(sp) >= T}| / C(d, m)

is exact, not an estimate, for that sample point. Averaging over the
``S`` samples yields the priors used by all later query searches, with
the paper's structural zeros ``p_down(1) = p_up(d) = 0``. The ``S``
sample searches run as one batch through the query driver
(:func:`repro.core.search.run_searches`), so they share its work units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.od import ODEvaluator, SharedODCache, knn_prefixes
from repro.core.priors import PruningPriors
from repro.core.search import DynamicSubspaceSearch, SearchStats, run_searches
from repro.index.base import KnnBackend

__all__ = ["LearningReport", "learn_priors"]


@dataclass(slots=True)
class LearningReport:
    """Outcome of one learning pass.

    Attributes
    ----------
    priors:
        The averaged :class:`~repro.core.priors.PruningPriors` to use for
        query points.
    sample_rows:
        Dataset rows the pass searched.
    per_sample_fractions:
        For each sample, the per-level outlying fraction array
        (index = level, slot 0 unused).
    per_sample_stats:
        The :class:`~repro.core.search.SearchStats` of each sample search.
    wall_time_s:
        Total learning time.
    """

    priors: PruningPriors
    sample_rows: list[int]
    per_sample_fractions: list[np.ndarray] = field(default_factory=list)
    per_sample_stats: list[SearchStats] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def total_od_evaluations(self) -> int:
        return sum(stats.od_evaluations for stats in self.per_sample_stats)


def learn_priors(
    backend: KnnBackend,
    X: np.ndarray,
    k: int,
    threshold: float,
    sample_size: int,
    seed: int | None = 0,
    reselect: str = "level",
    adaptive: bool = False,
    shared_cache: SharedODCache | None = None,
    kernel: str = "exact",
    precision: str = "auto",
) -> LearningReport:
    """Run the sample-based learning process and average the priors.

    Parameters
    ----------
    backend:
        kNN backend already built over ``X``.
    X:
        The dataset itself (needed to look up sample points; must be the
        matrix the backend indexes).
    k, threshold:
        OD parameters shared with the later query searches.
    sample_size:
        Number of sample points ``S``. ``0`` is allowed and returns the
        uniform priors unchanged (useful as the "no learning" ablation).
    seed:
        Seed for the sampling RNG.
    reselect, adaptive:
        Forwarded to :class:`~repro.core.search.DynamicSubspaceSearch`.
        Neither changes the learned fractions (search is lossless);
        ``adaptive`` merely cheapens the sample searches.
    shared_cache:
        Optional per-fit :class:`~repro.core.od.SharedODCache`; the
        sample searches then publish (and reuse) their OD values, so a
        later batched query of a sample row replays the learning pass's
        work for free. Cached values are exact, so the learned priors
        are unaffected.
    kernel:
        Resolved OD-kernel selector for the sample searches (the miner
        passes its fitted kernel so learning runs on the same fast
        path as queries). Lossless pruning is preserved under either
        kernel, so the learned fractions are unchanged.
    precision:
        GEMM precision tier for the sample searches (the miner passes
        its resolved tier). Near-threshold re-verification keeps every
        per-sample outlying fraction — hence the learned priors —
        identical across tiers.
    """
    if sample_size < 0:
        raise ConfigurationError(f"sample_size must be >= 0, got {sample_size}")
    if X.shape[0] != backend.size or X.shape[1] != backend.d:
        raise ConfigurationError(
            f"X has shape {X.shape} but the backend indexes "
            f"({backend.size}, {backend.d})"
        )
    d = backend.d
    uniform = PruningPriors.uniform(d)
    if sample_size == 0:
        return LearningReport(priors=uniform, sample_rows=[])

    if sample_size > X.shape[0]:
        raise ConfigurationError(
            f"sample_size={sample_size} exceeds the dataset size {X.shape[0]}"
        )

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sample_rows = sorted(
        int(row) for row in rng.choice(X.shape[0], size=sample_size, replace=False)
    )

    searches = [
        DynamicSubspaceSearch(
            ODEvaluator(
                backend,
                X[row],
                k,
                exclude=row,
                shared_cache=shared_cache,
                kernel=kernel,
                precision=precision,
            ),
            threshold,
            uniform,
            reselect,
            adaptive=adaptive,
        )
        for row in sample_rows
    ]
    p_up_sum = np.zeros(d + 1)
    report = LearningReport(priors=uniform, sample_rows=sample_rows)
    for outcome in run_searches(searches, partial(knn_prefixes, backend)):
        fractions = np.zeros(d + 1)
        for m in range(1, d + 1):
            fractions[m] = outcome.lattice.level_outlying_fraction(m)
        p_up_sum += fractions
        report.per_sample_fractions.append(fractions)
        report.per_sample_stats.append(outcome.stats)

    p_up = p_up_sum / sample_size
    p_down = 1.0 - p_up
    p_up[0] = p_down[0] = 0.0
    # Structural zeros (paper, end of Section 3.2): level 1 has no
    # subsets to prune downward, level d has no supersets to prune upward.
    p_down[1] = 0.0
    p_up[d] = 0.0
    report.priors = PruningPriors(d, p_up, p_down)
    report.wall_time_s = time.perf_counter() - start
    return report
