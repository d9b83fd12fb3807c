"""The dynamic subspace search engine — Section 3.3 of the paper.

The engine walks the subspace lattice level-set by level-set. At every
step it computes ``TSF(m, p)`` for each level that still contains
undecided subspaces and expands the level with the highest expected
saving. Evaluating one subspace triggers, via the OD monotonicity
properties, either

* **upward pruning** (``OD >= T``): every superset is immediately known
  outlying and joins the answer set unevaluated, or
* **downward pruning** (``OD < T``): every subset is immediately known
  non-outlying.

Because both inferences are exact consequences of monotonicity the
search is *lossless*: its answer set equals exhaustive enumeration's
(property-tested in ``tests/test_search_equivalence.py``). The TSF
ordering only changes how *few* OD evaluations are needed.

Two re-selection granularities are supported. ``"level"`` (paper
behaviour) finishes the chosen level before recomputing TSF;
``"evaluation"`` re-selects after every single OD computation, a finer
variant used by the ablation experiment E10.

A search is a coroutine (:meth:`DynamicSubspaceSearch.run_stepped`)
that asks for OD values; :func:`run_searches` is its one driver, for a
single query, the learning pass's samples and a query batch alike.

Adaptive priors (extension beyond the paper)
--------------------------------------------
The paper applies the *dataset-average* priors ``p_up(m)``/``p_down(m)``
to every query point. When the learning sample is dominated by inliers
(the common case for rare-outlier data), those averages say "downward
pruning is almost certain", the search runs top-down, and a genuinely
outlying query point — whose upward-closed answer set is huge — gets
evaluated nearly exhaustively because outlying evaluations high in the
lattice prune nothing new. The optional ``adaptive=True`` mode keeps the
learned priors as a Bayesian prior and shrinks them toward the evidence
the *current* query's search has already produced (per-level decided
fractions, plus a capped global fraction as weak evidence for untouched
levels). The update never changes the answer — pruning stays lossless —
only the expansion order. Experiment E10 quantifies the effect; it is
off by default for paper fidelity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Generator, Sequence

import numpy as np

from repro.core.config import require_bool, require_integer, require_threshold
from repro.core.exceptions import ConfigurationError, SearchBudgetExceeded
from repro.core.lattice import SubspaceLattice
from repro.core.od import ODEvaluator, component_entry, knn_prefixes, settle
from repro.core.priors import PruningPriors
# Every level's TSF in one pass, under the scalar formula's name: the
# per-layer trace (apibench, ``savings.tsf``) wraps this module
# attribute, so it counts one call per search step.
from repro.core.savings import total_saving_factors as total_saving_factor
from repro.core.subspace import Subspace, full_mask, ordered_masks

__all__ = [
    "COMPONENT_BUDGET_BYTES",
    "DynamicSubspaceSearch",
    "SearchOutcome",
    "SearchStats",
    "run_searches",
]

#: Ceiling on the memory held in per-search component matrices at any
#: moment inside :func:`run_searches`. Components are only profitable
#: for searches that evaluate many subspaces, and those are exactly the
#: searches that survive the first rounds — typically a small fraction
#: of a batch — so this budget is rarely binding; when it is, the work
#: unit builds a transient matrix per request instead.
COMPONENT_BUDGET_BYTES = 256 * 2**20

#: Pseudo-count weight of the learned prior in the adaptive blend: the
#: default of :class:`DynamicSubspaceSearch`'s ``adaptive_prior_weight``.
ADAPTIVE_PRIOR_WEIGHT = 8.0


@dataclass(slots=True)
class SearchStats:
    """Machine-independent cost profile of one subspace search."""

    od_evaluations: int = 0
    upward_pruned: int = 0
    downward_pruned: int = 0
    #: Order in which levels were selected for expansion.
    level_schedule: list[int] = field(default_factory=list)
    #: OD evaluations per level.
    evaluations_by_level: dict[int, int] = field(default_factory=dict)
    #: Near-threshold exact re-verifications (GEMM kernel honesty
    #: counter; always 0 under the exact kernel).
    reverified: int = 0
    #: Scatter rounds through the shard pool (batch aggregate; 0 outside
    #: multi-worker batches).
    shard_round_trips: int = 0
    wall_time_s: float = 0.0

    # Read-only zeros, not fields: nothing produces them since the shard
    # pool runs on threads, but apibench's run.py (``_Slice.add``) still
    # reads all five.
    bytes_shipped: ClassVar[int] = 0
    worker_respawns: ClassVar[int] = 0
    retries: ClassVar[int] = 0
    timeouts: ClassVar[int] = 0
    degraded_rounds: ClassVar[int] = 0

    @property
    def decided_without_evaluation(self) -> int:
        """Subspaces settled by pruning instead of kNN work."""
        return self.upward_pruned + self.downward_pruned

    def as_dict(self) -> dict[str, float]:
        return {
            "od_evaluations": self.od_evaluations,
            "upward_pruned": self.upward_pruned,
            "downward_pruned": self.downward_pruned,
            "reverified": self.reverified,
            "shard_round_trips": self.shard_round_trips,
            "wall_time_s": self.wall_time_s,
        }


@dataclass(slots=True)
class SearchOutcome:
    """Everything a finished search knows.

    ``outlying_masks`` contains *all* outlying subspaces (evaluated and
    inferred); the refinement filter reduces them to the minimal
    antichain later. The final lattice is kept so the learning pass can
    read exact per-level outlying fractions.
    """

    d: int
    threshold: float
    outlying_masks: list[int]
    stats: SearchStats
    lattice: SubspaceLattice

    @property
    def total_subspaces(self) -> int:
        return (1 << self.d) - 1

    @property
    def evaluated_fraction(self) -> float:
        """Share of the lattice that needed an actual OD computation."""
        return self.stats.od_evaluations / self.total_subspaces

    def outlying_subspaces(self) -> list[Subspace]:
        """Outlying subspaces as wrapper objects, in (level, lex) order."""
        return [Subspace(mask, self.d) for mask in ordered_masks(self.outlying_masks, self.d)]

    def is_outlier_anywhere(self) -> bool:
        """Paper Section 1: the point is an outlier iff the answer set is
        non-empty."""
        return bool(self.outlying_masks)


class DynamicSubspaceSearch:
    """TSF-ordered lattice search for one query point.

    Parameters
    ----------
    evaluator:
        Cached OD oracle for the query point.
    threshold:
        The global distance threshold ``T``.
    priors:
        Per-level pruning priors (uniform for learning samples, learned
        averages for query points).
    reselect:
        ``"level"`` (default, paper behaviour) or ``"evaluation"``.
    adaptive:
        Enable the adaptive-prior extension (see module docstring).
    adaptive_prior_weight:
        Pseudo-count weight of the learned prior in the adaptive blend.
    max_evaluations:
        Optional hard budget of OD evaluations; exceeding it raises
        :class:`~repro.core.exceptions.SearchBudgetExceeded`. A safety
        valve for interactive use at large ``d`` — the search is exact
        or it fails loudly, never silently approximate.
    """

    def __init__(
        self,
        evaluator: ODEvaluator,
        threshold: float,
        priors: PruningPriors,
        reselect: str = "level",
        adaptive: bool = False,
        adaptive_prior_weight: float = ADAPTIVE_PRIOR_WEIGHT,
        max_evaluations: int | None = None,
    ) -> None:
        require_threshold(threshold)
        if priors.d != evaluator.backend.d:
            raise ConfigurationError(
                f"priors are for d={priors.d} but the data has d={evaluator.backend.d}"
            )
        if reselect not in ("level", "evaluation"):
            raise ConfigurationError(
                f"reselect must be 'level' or 'evaluation', got {reselect!r}"
            )
        require_bool("adaptive", adaptive)
        if not adaptive_prior_weight > 0:
            raise ConfigurationError(
                f"adaptive_prior_weight must be positive, got {adaptive_prior_weight}"
            )
        if max_evaluations is not None and require_integer("max_evaluations", max_evaluations) < 1:
            raise ConfigurationError(
                f"max_evaluations must be >= 1, got {max_evaluations}"
            )
        self.evaluator = evaluator
        self.threshold = threshold
        self.priors = priors
        self.reselect = reselect
        self.adaptive = adaptive
        self.adaptive_prior_weight = adaptive_prior_weight
        self.max_evaluations = max_evaluations

    def run(self) -> SearchOutcome:
        """Execute the search to completion and return the outcome: a
        batch of one through :func:`run_searches`, in process."""
        return run_searches([self], partial(knn_prefixes, self.evaluator.backend))[0]

    def run_stepped(
        self,
    ) -> Generator[list[int], "dict[int, float]", SearchOutcome]:
        """The search as a coroutine for drivers that supply OD values.

        Yields the masks whose OD the search needs next and expects a
        ``{mask: od}`` dict in return via ``send``; the generator's
        return value is the finished :class:`SearchOutcome`. In
        ``"level"`` mode one whole level is requested per step —
        same-level subspaces cannot prune one another, so deciding them
        from a pre-fetched batch replays the per-mask decisions exactly;
        ``"evaluation"`` mode requests a single mask at a time.
        :func:`run_searches` drives it, grouping the requests of many
        concurrent searches into shared work units; each search sees
        the same answer set, level schedule and logical cost counters
        whatever it is grouped with.

        Each step is recorded with one lattice call per rule: the
        outlying masks are marked and their supersets pruned, then the
        non-outlying masks are marked and their subsets pruned.

        Under ``max_evaluations`` a step never requests more masks than
        the budget can record: it records the in-budget prefix and then
        raises :class:`~repro.core.exceptions.SearchBudgetExceeded`, so
        values beyond would be pure wasted (and unbounded) kernel work.
        """
        start = time.perf_counter()
        lattice = SubspaceLattice(self.evaluator.backend.d)
        stats = SearchStats()
        threshold = self.threshold
        priors = (self.priors.p_up.tolist(), self.priors.p_down.tolist())

        cursors: dict[int, int] = {}
        while lattice.has_unknown():
            level, masks = self._next_step(lattice, priors, stats, cursors)
            requested = masks
            if self.max_evaluations is not None:
                remaining = self.max_evaluations - stats.od_evaluations
                requested = masks[: max(0, remaining)]
            values = yield requested
            if requested:
                outlying: list[int] = []
                inlying: list[int] = []
                for mask in requested:
                    (outlying if values[mask] >= threshold else inlying).append(mask)
                lattice.mark_evaluated(outlying, True)
                stats.upward_pruned += lattice.prune_supersets(outlying)
                lattice.mark_evaluated(inlying, False)
                stats.downward_pruned += lattice.prune_subsets(inlying)
                stats.od_evaluations += len(requested)
                stats.evaluations_by_level[level] = (
                    stats.evaluations_by_level.get(level, 0) + len(requested)
                )
            if len(requested) < len(masks):
                undecided = sum(
                    lattice.remaining_count(m) for m in lattice.levels_with_unknown()
                )
                raise SearchBudgetExceeded(
                    f"search exceeded its budget of {self.max_evaluations} OD "
                    f"evaluations with {undecided} subspaces still undecided"
                )
        return self._finish(lattice, stats, start)

    # ------------------------------------------------------------------
    def _next_step(
        self,
        lattice: SubspaceLattice,
        priors: "tuple[list[float], list[float]]",
        stats: SearchStats,
        cursors: dict[int, int],
    ) -> tuple[int, list[int]]:
        """Select the next level and the masks this step will decide."""
        level = self._select_level(lattice, *priors)
        stats.level_schedule.append(level)
        if self.reselect == "level":
            return level, lattice.unknown_masks_at_level(level)
        mask, position = lattice.first_unknown_at_level(level, cursors.get(level, 0))
        cursors[level] = position
        return level, [mask]

    def _finish(
        self, lattice: SubspaceLattice, stats: SearchStats, start: float
    ) -> SearchOutcome:
        stats.wall_time_s = time.perf_counter() - start
        stats.reverified = self.evaluator.reverifications
        return SearchOutcome(
            d=lattice.d,
            threshold=self.threshold,
            outlying_masks=lattice.outlying_masks(),
            stats=stats,
            lattice=lattice,
        )

    def _select_level(
        self, lattice: SubspaceLattice, p_up: "list[float]", p_down: "list[float]"
    ) -> int:
        """Level with the highest TSF; ties favour the lower level, which
        keeps the schedule deterministic and biases toward the small
        subspaces the final filter wants anyway.

        *p_up* / *p_down* are the priors by level. Every level's TSF
        comes from one :func:`~repro.core.savings.total_saving_factors`
        call per step."""
        levels = lattice.levels_with_unknown()
        if self.adaptive:
            p_up, p_down = self._adaptive_priors(lattice, levels, p_up)
        tsfs = total_saving_factor(
            lattice.d, levels, p_up, p_down, lattice.remaining_workloads()
        )
        best_level = -1
        best_tsf = -1.0
        for m, tsf in zip(levels, tsfs):
            if tsf > best_tsf:
                best_level, best_tsf = m, tsf
        return best_level

    def _adaptive_priors(
        self, lattice: SubspaceLattice, levels: "list[int]", p_up: "list[float]"
    ) -> "tuple[list[float], list[float]]":
        """Priors by level for *levels*: the learned values shrunk toward
        the evidence produced so far by this very search.

        The blend is a conjugate-style update: the learned prior counts as
        ``adaptive_prior_weight`` pseudo-observations, each already-decided
        subspace at level ``m`` counts as one real observation, and the
        global decided fraction contributes up to ``2 d`` weak observations
        so untouched levels still react when the search discovers the
        query point is (or is not) broadly outlying.
        """
        d = lattice.d
        global_decided, global_outlying = lattice.decided_stats_total()
        global_weight = min(global_decided, 2 * d)
        global_fraction = (
            global_outlying / global_decided if global_decided else 0.0
        )
        weight = self.adaptive_prior_weight
        blended_up = [0.0] * (d + 1)
        blended_down = [0.0] * (d + 1)
        for m in levels:
            level_decided, level_outlying = lattice.decided_stats(m)
            estimate = (
                weight * p_up[m] + level_outlying + global_weight * global_fraction
            ) / (weight + level_decided + global_weight)
            # Preserve the structural boundary conventions of Section 3.2.
            blended_up[m] = 0.0 if m == d else estimate
            blended_down[m] = 0.0 if m == 1 else 1.0 - estimate
        return blended_up, blended_down


@dataclass(slots=True)
class _Flight:
    """One in-flight search inside :func:`run_searches`."""

    gen: Generator[list[int], "dict[int, float]", SearchOutcome]
    evaluator: ODEvaluator
    #: Bytes of this search's component entry while it is held.
    cost: int
    pending: list[int] = field(default_factory=list)
    values: dict[int, float] = field(default_factory=dict)
    outcome: SearchOutcome | None = None
    #: Component entry (:func:`repro.core.od.component_entry`), built on
    #: the search's first miss below the full space and dropped when it
    #: finishes.
    entry: "tuple | None" = None
    entry_built: bool = False


def run_searches(
    searches: Sequence[DynamicSubspaceSearch],
    execute: Callable[..., np.ndarray],
    component_budget: int = COMPONENT_BUDGET_BYTES,
) -> list[SearchOutcome]:
    """Drive many searches to completion in lock-step rounds.

    The one driver of :meth:`DynamicSubspaceSearch.run_stepped`:
    :meth:`~DynamicSubspaceSearch.run` is a batch of one, the learning
    pass one batch of its samples, and ``query_batch`` one batch of its
    targets. Each round

    1. splits every active search's requested masks into cache replays
       and misses (:meth:`~repro.core.od.ODEvaluator.split_cached`);
    2. coalesces searches with the same shared-cache point key — the
       first computes, the rest replay its values from the shared cache
       after the round (an evaluator without a shared cache coalesces
       with nothing);
    3. groups the remaining misses by mask signature and settles each
       group as one work unit through *execute* (a
       :func:`~repro.core.od.knn_prefixes` bound to the backend, or a
       shard pool's scatter) with :func:`~repro.core.od.settle`.

    Each search's component matrix is built on its first miss below the
    full space while the matrices held fit in *component_budget* bytes
    (0 builds none), and dropped when the search finishes. Every search
    must share one backend, ``k``, kernel, precision, shared cache and
    threshold, because a group is settled as one unit. Returns the
    outcomes in *searches* order.
    """
    units = {
        (
            id(search.evaluator.backend),
            search.evaluator.k,
            search.evaluator.kernel,
            search.evaluator.precision,
            id(search.evaluator.shared_cache),
            search.threshold,
        )
        for search in searches
    }
    if len(units) > 1:
        raise ConfigurationError(
            "run_searches needs searches that share one backend, k, kernel, "
            "precision, shared cache and threshold"
        )
    flights = []
    for search in searches:
        backend = search.evaluator.backend
        # Float64 components cost 8 bytes/element; the float32 tier
        # keeps a transposed float32 copy alongside (4 more).
        per_cell = 12 if search.evaluator.precision == "float32" else 8
        flights.append(
            _Flight(search.run_stepped(), search.evaluator, backend.size * backend.d * per_cell)
        )
    held = 0

    def entry(flight: _Flight) -> "tuple | None":
        nonlocal held
        if not flight.entry_built and held + flight.cost <= component_budget:
            flight.entry_built = True
            evaluator = flight.evaluator
            flight.entry = component_entry(evaluator.backend, evaluator.query, evaluator.precision)
            if flight.entry is not None:
                held += flight.cost
        return flight.entry

    for flight in flights:
        # d >= 1 guarantees the first step always requests something.
        flight.pending = next(flight.gen)
    active = flights
    while active:
        groups: dict[tuple[int, ...], list[_Flight]] = {}
        duplicates: list[tuple[_Flight, list[int]]] = []
        seen: set[tuple[str, object]] = set()
        for flight in active:
            flight.values, misses = flight.evaluator.split_cached(flight.pending)
            if not misses:
                continue
            key = flight.evaluator.point_key
            if key is not None:
                if key in seen:
                    duplicates.append((flight, misses))
                    continue
                seen.add(key)
            groups.setdefault(tuple(misses), []).append(flight)
        for signature, group in groups.items():
            lead = group[0].evaluator
            masks = list(signature)
            rows = settle(
                execute,
                [flight.evaluator for flight in group],
                masks,
                searches[0].threshold,
                # The full space settles exactly without component entries.
                entries=None
                if signature == (full_mask(lead.backend.d),)
                else [entry(flight) for flight in group],
            )
            for flight, row in zip(group, rows):
                flight.values.update(zip(masks, row))
        for flight, misses in duplicates:
            # The leader settled these masks into the shared cache.
            cached_od = flight.evaluator.cached_od
            for mask in misses:
                flight.values[mask] = cached_od(mask)

        still_active = []
        for flight in active:
            try:
                flight.pending = flight.gen.send(flight.values)
                still_active.append(flight)
            except StopIteration as stop:
                flight.outcome = stop.value
                if flight.entry is not None:
                    held -= flight.cost
                    flight.entry = None
        active = still_active
    return [flight.outcome for flight in flights]
