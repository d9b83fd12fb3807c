"""User-facing results of HOS-Miner queries.

:class:`OutlyingSubspaceResult` bundles what the demo UI of the paper
would show for one query point: the minimal outlying subspaces
(post-filter), the full answer-set size, the OD value behind every
returned subspace, and the machine-independent search costs.
:class:`BatchResult` wraps one such result per point of a
:meth:`~repro.core.miner.HOSMiner.query_batch` call plus the aggregate
cost profile of the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.filtering import expand_upward
from repro.core.search import SearchStats
from repro.core.subspace import Subspace, is_subset

__all__ = ["BatchResult", "OutlyingSubspaceResult"]


@dataclass(slots=True)
class OutlyingSubspaceResult:
    """Answer to "in which subspaces is this point an outlier?".

    Attributes
    ----------
    query:
        The query point (full-dimensional vector).
    d, k, threshold:
        Search parameters.
    minimal:
        The filtered answer: minimal outlying subspaces, ascending by
        (dimensionality, dimensions).
    total_outlying:
        Size of the unfiltered upward-closed answer set.
    od_values:
        OD of the query point in each minimal subspace.
    stats:
        Search cost profile.
    feature_names:
        Optional column names used by :meth:`explain`.
    """

    query: np.ndarray
    d: int
    k: int
    threshold: float
    minimal: list[Subspace]
    total_outlying: int
    od_values: dict[Subspace, float] = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)
    feature_names: list[str] | None = None

    # ------------------------------------------------------------------
    @property
    def is_outlier(self) -> bool:
        """The paper's criterion: an empty answer set means the point is
        not an outlier in any subspace."""
        return bool(self.minimal)

    @property
    def refinement_factor(self) -> float:
        """How much the filter shrank the answer (≥ 1; 1 when empty)."""
        if not self.minimal:
            return 1.0
        return self.total_outlying / len(self.minimal)

    def is_outlying_in(self, subspace: Subspace) -> bool:
        """Whether *subspace* belongs to the (upward-closed) answer set."""
        return any(is_subset(kept.mask, subspace.mask) for kept in self.minimal)

    def all_outlying_masks(self) -> set[int]:
        """Reconstruct the full answer set from the minimal antichain."""
        return expand_upward([s.mask for s in self.minimal], self.d)

    # ------------------------------------------------------------------
    def _name(self, dim: int) -> str:
        if self.feature_names is not None and dim < len(self.feature_names):
            return self.feature_names[dim]
        return f"x{dim + 1}"

    def describe_subspace(self, subspace: Subspace) -> str:
        """Render a subspace with feature names, e.g. ``{height, speed}``."""
        return "{" + ", ".join(self._name(dim) for dim in subspace.dims) + "}"

    def explain(self, max_rows: int = 10) -> str:
        """Human-readable multi-line summary (demo-style output)."""
        lines = []
        if not self.minimal:
            lines.append(
                f"Point is NOT an outlier in any subspace (k={self.k}, "
                f"T={self.threshold:.4g})."
            )
            return "\n".join(lines)
        lines.append(
            f"Point is an outlier in {self.total_outlying} subspaces "
            f"(k={self.k}, T={self.threshold:.4g}); "
            f"{len(self.minimal)} minimal one(s):"
        )
        for subspace in self.minimal[:max_rows]:
            od = self.od_values.get(subspace)
            od_text = f"OD={od:.4g}" if od is not None else "OD=inferred"
            lines.append(
                f"  {subspace.notation():<16} {self.describe_subspace(subspace):<40} {od_text}"
            )
        hidden = len(self.minimal) - max_rows
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"OutlyingSubspaceResult(minimal={[s.notation() for s in self.minimal]}, "
            f"total={self.total_outlying}, k={self.k}, T={self.threshold:.4g})"
        )


@dataclass(slots=True)
class BatchResult:
    """Answers and aggregate costs of one batched multi-query call.

    ``results[i]`` is exactly the :class:`OutlyingSubspaceResult` a
    sequential ``query_point``/``query_row`` call would have produced
    for target ``i`` — the batch engine only changes how the work is
    scheduled, never the answers.

    Attributes
    ----------
    results:
        Per-target results, in input order.
    stats:
        Aggregate :class:`~repro.core.search.SearchStats` (numeric
        fields summed over all searches; the per-search level schedules
        are not concatenated because their interleaving is a scheduling
        artefact).
    knn_evaluations:
        Real kNN computations the batch performed (cache hits excluded).
    shared_cache_hits:
        OD values replayed from the per-fit shared cache instead of
        being recomputed.
    wall_time_s:
        End-to-end batch wall time, including result assembly.
    workers:
        Number of row shards used (1 = in-process).
    replayed:
        Targets answered from an outcome the shared cache stored for
        their point, without a search (their OD values count as
        shared-cache hits).
    """

    results: list[OutlyingSubspaceResult]
    stats: SearchStats = field(default_factory=SearchStats)
    knn_evaluations: int = 0
    shared_cache_hits: int = 0
    wall_time_s: float = 0.0
    workers: int = 1
    replayed: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[OutlyingSubspaceResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> OutlyingSubspaceResult:
        return self.results[index]

    @property
    def n_outliers(self) -> int:
        """How many targets are outliers in at least one subspace."""
        return sum(1 for result in self.results if result.is_outlier)

    @property
    def queries_per_second(self) -> float:
        """Throughput of the batch (0 when the batch was instantaneous)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return len(self.results) / self.wall_time_s

    def summary(self) -> str:
        """One-paragraph human-readable account of the batch."""
        lines = [
            f"{len(self.results)} queries in {self.wall_time_s:.3f}s "
            f"({self.queries_per_second:.1f} q/s, workers={self.workers}): "
            f"{self.n_outliers} outlier(s)",
            f"  kNN evaluations: {self.knn_evaluations}, "
            f"shared-cache hits: {self.shared_cache_hits}, "
            f"OD values consumed: {self.stats.od_evaluations}, "
            f"answers replayed: {self.replayed}",
            f"  pruning: {self.stats.upward_pruned} upward, "
            f"{self.stats.downward_pruned} downward",
        ]
        if self.stats.shard_round_trips:
            lines.append(
                f"  shard scatter: {self.stats.shard_round_trips} round trip(s)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"BatchResult(n={len(self.results)}, outliers={self.n_outliers}, "
            f"knn_evaluations={self.knn_evaluations}, "
            f"shared_cache_hits={self.shared_cache_hits})"
        )
