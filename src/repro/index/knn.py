"""Best-first subspace kNN and range search over R*-/X-trees.

The classic Hjaltason–Samet incremental algorithm: a priority queue of
tree nodes ordered by MINDIST to the query, interleaved with a bounded
max-heap of the k best data points found so far. A node is expanded only
while its MINDIST does not exceed the current k-th best distance, which
makes the search exact for any metric whose MINDIST is a true lower
bound — all metrics in :mod:`repro.core.metrics` are.

Subspace support falls out for free: MINDIST and the point distances
are simply computed over the queried dimension subset. Projection can
only shrink distances, and the projected MINDIST is the exact MINDIST
of the projected box, so no correctness argument changes.

Tie handling matches the linear scan bit-for-bit: candidates are kept by
``(distance, row index)`` order, and node expansion uses ``<=`` against
the bound so an equal-distance, smaller-index row hiding in a farther
node can still displace a tie.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.index.base import require_k, validate_query_dims
from repro.index.heap import KnnHeap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.rstar import RStarTree

__all__ = ["tree_knn", "tree_range_query"]


def tree_knn(
    tree: "RStarTree",
    query: np.ndarray,
    k: int,
    dims: Sequence[int],
    exclude: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbours of *query* over subspace *dims*."""
    query, dims = validate_query_dims(query, dims, tree.d)
    require_k(k, tree.size, [exclude])

    metric = tree.metric
    stats = tree.stats
    X = tree.data
    result = KnnHeap(k)
    tiebreak = count()
    root = tree.root
    queue: list[tuple[float, int, object]] = []
    if root.mbr is not None:
        stats.mindist_computations += 1
        heapq.heappush(
            queue, (metric.mindist(query, root.mbr.lower, root.mbr.upper, dims), next(tiebreak), root)
        )

    while queue and queue[0][0] <= result.bound():
        _, __, node = heapq.heappop(queue)
        # A supernode spans `blocks` disk pages — charge its true width.
        stats.node_accesses += node.blocks
        if node.is_leaf:
            rows = node.rows
            if not rows:
                continue
            distances = metric.pairwise(X[rows], query, dims)
            stats.distance_computations += len(rows)
            for row, distance in zip(rows, distances):
                if row == exclude:
                    continue
                result.offer(float(distance), row)
        else:
            bound = result.bound()
            for child in node.children:
                if child.mbr is None:
                    continue
                stats.mindist_computations += 1
                lower_bound = metric.mindist(query, child.mbr.lower, child.mbr.upper, dims)
                if lower_bound <= bound:
                    heapq.heappush(queue, (lower_bound, next(tiebreak), child))

    stats.knn_queries += 1
    items = result.items()
    indices = np.array([row for row, _ in items], dtype=np.intp)
    distances = np.array([distance for _, distance in items], dtype=np.float64)
    return indices, distances


def tree_range_query(
    tree: "RStarTree",
    query: np.ndarray,
    radius: float,
    dims: Sequence[int],
    exclude: int | None = None,
) -> np.ndarray:
    """All rows within *radius* of *query* over subspace *dims*."""
    query, dims = validate_query_dims(query, dims, tree.d)
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")

    metric = tree.metric
    stats = tree.stats
    X = tree.data
    hits: list[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.mbr is None:
            continue
        stats.node_accesses += node.blocks
        if node.is_leaf:
            rows = node.rows
            if not rows:
                continue
            distances = metric.pairwise(X[rows], query, dims)
            stats.distance_computations += len(rows)
            for row, distance in zip(rows, distances):
                if row != exclude and distance <= radius:
                    hits.append(row)
        else:
            for child in node.children:
                if child.mbr is None:
                    continue
                stats.mindist_computations += 1
                if metric.mindist(query, child.mbr.lower, child.mbr.upper, dims) <= radius:
                    stack.append(child)

    stats.range_queries += 1
    return np.array(sorted(hits), dtype=np.intp)
