"""Naive and fixed-order outlying-subspace searches — ablation baselines.

Experiment E10 isolates what each HOS-Miner ingredient buys by running
the same lossless pruning machinery under degraded orderings:

* :func:`exhaustive_search` — evaluate all ``2**d - 1`` subspaces, no
  pruning. The ground-truth oracle for every effectiveness experiment
  and the cost ceiling for every efficiency experiment.
* :func:`fixed_order_search` — evaluate levels in a fixed sweep
  (``"bottom_up"`` = 1..d or ``"top_down"`` = d..1) with both pruning
  rules active but no TSF scheduling.
* TSF scheduling itself is :class:`repro.core.search.DynamicSubspaceSearch`;
  run it with :meth:`PruningPriors.uniform` for the "no learning"
  ablation and with learned priors for full HOS-Miner.

All variants return the same :class:`~repro.core.search.SearchOutcome`
type, so measures and tables treat them uniformly.
"""

from __future__ import annotations

import time

from repro.core.config import require_threshold
from repro.core.exceptions import ConfigurationError
from repro.core.lattice import SubspaceLattice
from repro.core.od import ODEvaluator
from repro.core.search import SearchOutcome, SearchStats

__all__ = ["exhaustive_search", "fixed_order_search"]


def exhaustive_search(evaluator: ODEvaluator, threshold: float) -> SearchOutcome:
    """Evaluate every non-empty subspace; no pruning at all.

    The returned outcome's ``outlying_masks`` is the exact answer set —
    the oracle that every other strategy is verified against.
    """
    require_threshold(threshold)
    start = time.perf_counter()
    d = evaluator.backend.d
    lattice = SubspaceLattice(d)
    stats = SearchStats()
    for m in range(1, d + 1):
        stats.level_schedule.append(m)
        for mask in lattice.unknown_masks_at_level(m):
            outlying = evaluator.od(mask) >= threshold
            lattice.mark_evaluated(mask, outlying)
            stats.od_evaluations += 1
            stats.evaluations_by_level[m] = stats.evaluations_by_level.get(m, 0) + 1
    stats.wall_time_s = time.perf_counter() - start
    return SearchOutcome(
        d=d,
        threshold=threshold,
        outlying_masks=lattice.outlying_masks(),
        stats=stats,
        lattice=lattice,
    )


def fixed_order_search(
    evaluator: ODEvaluator, threshold: float, order: str = "bottom_up"
) -> SearchOutcome:
    """Level sweep in a fixed direction with both pruning rules active.

    ``"bottom_up"`` favours upward pruning (small outlying subspaces
    wipe out their supersets); ``"top_down"`` favours downward pruning
    (a non-outlying full space wipes out everything). Which one wins
    depends on the data — exactly the gap TSF scheduling closes.
    """
    require_threshold(threshold)
    if order not in ("bottom_up", "top_down"):
        raise ConfigurationError(f"order must be 'bottom_up' or 'top_down', got {order!r}")
    start = time.perf_counter()
    d = evaluator.backend.d
    lattice = SubspaceLattice(d)
    stats = SearchStats()
    levels = range(1, d + 1) if order == "bottom_up" else range(d, 0, -1)
    for m in levels:
        if lattice.remaining_count(m) == 0:
            continue
        stats.level_schedule.append(m)
        for mask in lattice.unknown_masks_at_level(m):
            if not lattice.is_unknown(mask):
                continue
            outlying = evaluator.od(mask) >= threshold
            stats.od_evaluations += 1
            stats.evaluations_by_level[m] = stats.evaluations_by_level.get(m, 0) + 1
            lattice.mark_evaluated(mask, outlying)
            if outlying:
                stats.upward_pruned += lattice.prune_supersets(mask)
            else:
                stats.downward_pruned += lattice.prune_subsets(mask)
    stats.wall_time_s = time.perf_counter() - start
    return SearchOutcome(
        d=d,
        threshold=threshold,
        outlying_masks=lattice.outlying_masks(),
        stats=stats,
        lattice=lattice,
    )
